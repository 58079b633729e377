// Numeric search primitives used by the optimizer.
//
// Range models the paper's Procedure 2 vocabulary: MID(XRange) is the
// midpoint, LOWER/HIGHER are the half-intervals split at MID.
#pragma once

#include <functional>

namespace minergy::util {

struct Range {
  double lo;
  double hi;

  double mid() const { return 0.5 * (lo + hi); }
  Range lower() const { return {lo, mid()}; }
  Range higher() const { return {mid(), hi}; }
  double width() const { return hi - lo; }
  bool contains(double x) const { return x >= lo && x <= hi; }
  double clamp(double x) const { return x < lo ? lo : (x > hi ? hi : x); }
};

// Smallest x in [lo, hi] with pred(x) true, assuming pred is monotone
// (false ... false true ... true). Returns hi if pred never becomes true
// within `steps` bisections; callers must verify pred at the result.
double bisect_min_true(double lo, double hi, int steps,
                       const std::function<bool(double)>& pred);

// Largest x in [lo, hi] with pred(x) true, assuming monotone
// (true ... true false ... false).
double bisect_max_true(double lo, double hi, int steps,
                       const std::function<bool(double)>& pred);

// Golden-section minimization of a unimodal function on [lo, hi]. Returns
// the best point probed; when `f_min` is non-null it receives f at that
// point, so the caller need not evaluate it again.
double golden_section_min(double lo, double hi, int steps,
                          const std::function<double(double)>& f,
                          double* f_min = nullptr);

}  // namespace minergy::util
