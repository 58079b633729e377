#include "util/search.h"

#include <cmath>

#include "util/check.h"

namespace minergy::util {

double bisect_min_true(double lo, double hi, int steps,
                       const std::function<bool(double)>& pred) {
  MINERGY_CHECK(lo <= hi);
  for (int i = 0; i < steps; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

double bisect_max_true(double lo, double hi, int steps,
                       const std::function<bool(double)>& pred) {
  MINERGY_CHECK(lo <= hi);
  for (int i = 0; i < steps; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (pred(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double golden_section_min(double lo, double hi, int steps,
                          const std::function<double(double)>& f,
                          double* f_min) {
  MINERGY_CHECK(lo <= hi);
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double c = b - kInvPhi * (b - a);
  double d = a + kInvPhi * (b - a);
  double fc = f(c), fd = f(d);
  for (int i = 0; i < steps; ++i) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - kInvPhi * (b - a);
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + kInvPhi * (b - a);
      fd = f(d);
    }
  }
  if (f_min != nullptr) *f_min = fc < fd ? fc : fd;
  return fc < fd ? c : d;
}

}  // namespace minergy::util
