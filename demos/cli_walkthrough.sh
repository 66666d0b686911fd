#!/bin/sh
# End-to-end command-line session: simulate -> fit -> acf -> diagnose ->
# replication study.  Run from anywhere; writes into a scratch directory.
set -e

DIR="$(mktemp -d)"
echo "working in $DIR"
cd "$DIR"

echo "== simulate a 60x60 grid (deterministic: seed 7) =="
cinar simulate --order 1,1 --theta 0.2,0.2,0.1 --family poisson \
    --mu-eps 1.0 --n 60,60 --seed 7 --out grid.csv
head -2 grid.csv
echo "(metadata in grid.meta.json)"

echo
echo "== fit all three estimators =="
cinar fit --grid grid.csv --order 1,1 --method yw,cls,cml --out fit.json
python3 -c "
import json
for f in json.load(open('fit.json'))['fits']:
    print(f['method'], [round(v, 3) for v in f['estimates']])
"

echo
echo "== a simplified model: pin theta_11 to zero =="
cinar fit --grid grid.csv --order 1,1 --method cml --fix theta11=0 \
    --out fit_simplified.json
python3 -c "
import json
f = json.load(open('fit_simplified.json'))['fits'][0]
print(dict(zip(f['names'], [round(v, 3) for v in f['estimates']])))
print('BIC', round(f['bic'], 1))
"

echo
echo "== sample vs theoretical autocorrelation =="
cinar acf --grid grid.csv --window 2,2 --out acf_sample.csv
cinar acf --order 1,1 --theta 0.2,0.2,0.1 --mu-eps 1.0 --window 2,2 \
    --out acf_model.csv
echo "sample:";      head -2 acf_sample.csv
echo "theoretical:"; head -2 acf_model.csv

echo
echo "== model autocorrelation at strong dependence (alpha = 0.95) =="
cinar acf --order 1,1 --theta 0.3,0.3,0.35 --mu-eps 1.0 --window 5,5 \
    --out acf_strong.csv
head -2 acf_strong.csv

echo
echo "== diagnostics for the fitted model =="
cinar diagnose --grid grid.csv --params fit.json --out report.json
python3 -c "
import json
r = json.load(open('report.json'))['report']
print('residual mean', round(r['residual_mean'], 3),
      ' variance', round(r['residual_variance'], 3))
print('PIT bins', [round(v, 2) for v in r['pit_bins']])
"

echo
echo "== tiny replication study (8 reps, 2 estimators) =="
cinar simstudy --order 1,1 --theta 0.2,0.2,0.1 --mu-eps 1.0 \
    --sizes "20,20" --methods cls,cml --reps 8 --seed 1 --out study.csv
awk -F, '$6 == "mean"' study.csv

echo
echo "done; outputs left in $DIR"
