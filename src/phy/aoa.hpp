// aoa.hpp — Angle-of-Arrival estimation from CSI (§9 future work).
//
// The paper's classifier cannot detect a client walking a circle around the
// AP (constant distance, no ToF trend) and proposes augmenting the system
// with AoA. The AP's 3-antenna uniform linear array encodes the departure
// angle of each path in the phase progression across its elements
// (and by channel reciprocity the uplink arrival angle equals it): this
// module recovers the dominant angle with a beamscan over the array
// steering vectors, averaged across subcarriers and client chains.
//
// The scan is SIMD-vectorized across grid points (8 angles per block on
// every tier) against a cached steering table, and stays bit-identical to
// the one-angle std::complex scan on every tier: each lane repeats the
// scalar operation sequence with no FMA, the sum and argmax run serially
// in grid order, and NaN lanes are recomputed through std::complex. It
// never allocates. See DESIGN.md §5 "Beamscan AoA".
#pragma once

#include "phy/csi.hpp"

namespace mobiwlan {

struct AoaEstimate {
  /// Dominant angle in [0, pi] (ULA cone ambiguity). NaN when the CSI
  /// carries no power at all: a flat zero spectrum has no argmax, and any
  /// finite angle here would be an invented one.
  double angle_rad = 0.0;
  /// Beamscan peak / mean — confidence proxy. A real scan always yields
  /// >= 1 (the peak cannot fall below the mean), so the degenerate cases
  /// (empty CSI, too-coarse grid, all-zero CSI) report 0.0, letting fusion
  /// stages reject no-signal estimates with a single threshold.
  double peak_ratio = 0.0;
};

/// Beamscan AoA: evaluates P(theta) = sum_{sc,rx} |a(theta)^H h_{sc,rx}|^2
/// over a grid of `grid_points` angles, where a(theta) is the lambda/2 ULA
/// steering vector across the AP's antennas. Returns the grid argmax.
AoaEstimate estimate_aoa(const CsiMatrix& csi, int grid_points = 181);

}  // namespace mobiwlan
