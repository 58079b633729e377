#include "interconnect/wire_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace minergy::interconnect {

void WireLoads::read_loads(std::size_t num_nets) {
  net_cap_.resize(num_nets);
  net_res_.resize(num_nets);
  flight_.resize(num_nets);
  for (std::size_t i = 0; i < num_nets; ++i) {
    const auto id = static_cast<netlist::GateId>(i);
    net_cap_[i] = net_cap(id);
    net_res_[i] = net_res(id);
    flight_[i] = flight_time(id);
  }
}

WireLengthDistribution::WireLengthDistribution(std::size_t num_gates,
                                               double rent_p) {
  MINERGY_CHECK(num_gates >= 1);
  MINERGY_CHECK(rent_p > 0.0 && rent_p < 1.0);
  const double n = static_cast<double>(num_gates);
  const double sqrt_n = std::sqrt(n);
  const int lmax = std::max(1, static_cast<int>(std::floor(2.0 * sqrt_n)));

  pmf_.resize(static_cast<std::size_t>(lmax));
  double total = 0.0;
  for (int l = 1; l <= lmax; ++l) {
    const double ld = static_cast<double>(l);
    const double power = std::pow(ld, 2.0 * rent_p - 4.0);
    double density;
    if (ld < sqrt_n) {
      density = (ld * ld * ld / 3.0 - 2.0 * sqrt_n * ld * ld + 2.0 * n * ld) *
                power;
    } else {
      const double r = 2.0 * sqrt_n - ld;
      density = r * r * r / 6.0 * power;
    }
    density = std::max(density, 0.0);
    pmf_[static_cast<std::size_t>(l - 1)] = density;
    total += density;
  }
  MINERGY_CHECK_MSG(total > 0.0, "degenerate wire-length distribution");

  cdf_.resize(pmf_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    pmf_[i] /= total;
    acc += pmf_[i];
    cdf_[i] = acc;
    mean_ += static_cast<double>(i + 1) * pmf_[i];
  }
  cdf_.back() = 1.0;  // guard against rounding
}

double WireLengthDistribution::pmf(int l) const {
  MINERGY_CHECK(l >= 1 && l <= max_length());
  return pmf_[static_cast<std::size_t>(l - 1)];
}

int WireLengthDistribution::quantile(double q) const {
  MINERGY_CHECK(q >= 0.0 && q <= 1.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), q);
  return static_cast<int>(it - cdf_.begin()) + 1;
}

WireModel::WireModel(const tech::Technology& tech, const netlist::Netlist& nl)
    : nl_(nl),
      dist_(std::max<std::size_t>(nl.num_combinational(), 4),
            tech.rent_exponent),
      pitch_(tech.gate_pitch),
      cap_per_len_(tech.wire_cap_per_len),
      res_per_len_(tech.wire_res_per_len),
      inv_velocity_(1.0 / tech.flight_velocity) {
  MINERGY_CHECK(nl.finalized());
  trunk_length_.resize(nl.size(), 0.0);
  // Deterministic per-net quantile: mix the driver id with the netlist size
  // so different circuits see decorrelated samples.
  const std::uint64_t salt = 0x5851f42d4c957f2dULL ^ nl.size();
  for (const netlist::Gate& g : nl.gates()) {
    const double u = util::hash_unit(salt + 0x9e3779b97f4a7c15ULL * (g.id + 1));
    trunk_length_[g.id] =
        static_cast<double>(dist_.quantile(u)) * pitch_;
  }
  read_loads(nl.size());
}

double WireModel::net_length(netlist::GateId driver) const {
  MINERGY_CHECK(driver < trunk_length_.size());
  return trunk_length_[driver];
}

double WireModel::routed_length(netlist::GateId driver) const {
  const int branches = nl_.gate(driver).branch_count();
  return net_length(driver) * (1.0 + 0.4 * static_cast<double>(branches - 1));
}

double WireModel::net_cap(netlist::GateId driver) const {
  return routed_length(driver) * cap_per_len_;
}

double WireModel::net_res(netlist::GateId driver) const {
  return net_length(driver) * res_per_len_;
}

double WireModel::flight_time(netlist::GateId driver) const {
  return net_length(driver) * inv_velocity_;
}

}  // namespace minergy::interconnect
