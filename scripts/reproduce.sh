#!/usr/bin/env sh
# Regenerate every bundled artifact: stability-lab CSVs/plots, datasets,
# and the four experiment runs. Takes a few minutes end to end.
#
# Usage: scripts/reproduce.sh [OUT]   (OUT defaults to runs)
# OUT moves only the stability and dataset outputs. The four train calls
# always write to each config's "output", runs/ex*, so even with another
# OUT this script overwrites the committed runs.
set -e

OUT=${1:-runs}

implicitnet stability --out "$OUT/stability" --svg
implicitnet stability --scheme verlet --h 0.05 --out "$OUT/stability_verlet_unstable" --svg

implicitnet dataset --name regression --out "$OUT/data"
implicitnet dataset --name spirals --out "$OUT/data"

implicitnet gradcheck

implicitnet train configs/ex1_trapezoidal.json --svg
implicitnet train configs/ex1_resnet.json --svg
implicitnet train configs/ex2_trapezoidal.json --svg
implicitnet train configs/ex2_resnet.json --svg
