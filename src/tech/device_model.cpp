#include "tech/device_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace minergy::tech {

DeviceModel::DeviceModel(const Technology& tech) : tech_(tech) {
  tech_.validate();
  vov0_ = tech_.blend_overdrive_factor * tech_.nvt();
  i_at_vov0_ = super_current(vov0_);
  const double width_total = (1.0 + tech_.beta_ratio) * tech_.feature_size;
  cin_ = tech_.cgate_per_w * width_total;
  cpar_ = tech_.cpar_per_w * width_total;
  cmid_ = tech_.cmid_per_w * width_total;
}

double DeviceModel::super_current(double vov) const {
  return tech_.pc * tech_.feature_size * std::pow(vov, tech_.alpha);
}

double DeviceModel::idrive_per_wunit(double vdd, double vts) const {
  MINERGY_CHECK(vdd > 0.0);
  const double vov = vdd - vts;
  if (vov >= vov0_) return super_current(vov);
  // Exponential subthreshold tail, continuous at vov0 with the correct
  // slope 1/(n*vT) per decade of e.
  return i_at_vov0_ * std::exp((vov - vov0_) / tech_.nvt());
}

double DeviceModel::ioff_per_wunit(double vts) const {
  // Vgs = 0 => overdrive -vts, always in the exponential region for any
  // positive threshold. Both the N pull-down and the (beta-wider) P pull-up
  // leak in one of the two output states; averaged over states the total
  // leaking width is (1 + beta)/2 * (w_n + w_p)... we keep the paper's
  // simple linear-in-w form and fold the device-count factor into the
  // per-wunit coefficient.
  const double isub = tech_.leakage_scale * i_at_vov0_ *
                      std::exp((-vts - vov0_) / tech_.nvt());
  const double ijunc =
      tech_.junction_leak_per_w * (1.0 + tech_.beta_ratio) * tech_.feature_size;
  return isub + ijunc;
}

double DeviceModel::slope_coefficient(double vdd, double vts) const {
  MINERGY_CHECK(vdd > 0.0);
  const double ratio = std::clamp(vts / vdd, 0.0, 1.0);
  const double k = 0.5 - (1.0 - ratio) / (1.0 + tech_.alpha);
  return std::clamp(k, 0.0, 0.5);
}

OperatingPoint DeviceModel::operating_point(double vdd, double vts) const {
  return {.vdd = vdd,
          .vts = vts,
          .idrive = idrive_per_wunit(vdd, vts),
          .ioff = ioff_per_wunit(vts),
          .k_slope = slope_coefficient(vdd, vts)};
}

double DeviceModel::stack_factor(int fanin) {
  return fanin <= 1 ? 1.0 : static_cast<double>(fanin);
}

}  // namespace minergy::tech
