#include "sim/cloud.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace wire::sim {

namespace {
/// Billing epsilon: avoids charging an extra unit when a drain lands exactly
/// on a charge boundary up to floating-point error.
constexpr double kBillingEps = 1e-6;
}  // namespace

InstanceId CloudPool::request(SimTime now, double speed_factor,
                              SimTime lag_override) {
  Instance inst;
  inst.id = static_cast<InstanceId>(instances_.size());
  inst.state = InstanceState::Provisioning;
  inst.requested_at = now;
  inst.ready_at =
      now + (lag_override >= 0.0 ? lag_override : config_.lag_seconds);
  inst.speed_factor = speed_factor;
  instances_.push_back(inst);
  live_ids_.push_back(inst.id);  // ids increase, so live_ids_ stays sorted
  peak_live_ = std::max(peak_live_, live_count());
  return inst.id;
}

InstanceId CloudPool::request_ready(SimTime now, double speed_factor) {
  Instance inst;
  inst.id = static_cast<InstanceId>(instances_.size());
  inst.state = InstanceState::Ready;
  inst.requested_at = now;
  inst.ready_at = now;
  inst.speed_factor = speed_factor;
  instances_.push_back(inst);
  live_ids_.push_back(inst.id);
  peak_live_ = std::max(peak_live_, live_count());
  return inst.id;
}

Instance& CloudPool::mutable_instance(InstanceId id) {
  WIRE_REQUIRE(id < instances_.size(), "unknown instance id");
  return instances_[id];
}

void CloudPool::mark_ready(InstanceId id, SimTime now) {
  Instance& inst = mutable_instance(id);
  if (inst.state == InstanceState::Terminated) return;  // cancelled mid-boot
  WIRE_CHECK(inst.state == InstanceState::Provisioning,
             "mark_ready on non-provisioning instance");
  WIRE_CHECK(std::abs(now - inst.ready_at) < 1e-9,
             "mark_ready at unexpected time");
  inst.state = InstanceState::Ready;
}

void CloudPool::terminate(InstanceId id, SimTime now) {
  Instance& inst = mutable_instance(id);
  WIRE_REQUIRE(inst.state != InstanceState::Terminated,
               "instance already terminated");
  inst.state = InstanceState::Terminated;
  inst.terminated_at = now;
  inst.drain_at = -1.0;
  const auto it = std::lower_bound(live_ids_.begin(), live_ids_.end(), id);
  WIRE_CHECK(it != live_ids_.end() && *it == id,
             "terminated instance missing from the live index");
  live_ids_.erase(it);
}

SimTime CloudPool::schedule_drain(InstanceId id, SimTime now) {
  Instance& inst = mutable_instance(id);
  WIRE_REQUIRE(inst.state == InstanceState::Ready,
               "can only drain a ready instance");
  const SimTime boundary = now + time_to_next_charge(id, now);
  inst.drain_at = boundary;
  return boundary;
}

void CloudPool::cancel_drain(InstanceId id) {
  Instance& inst = mutable_instance(id);
  inst.drain_at = -1.0;
}

void CloudPool::mark_doomed(InstanceId id, SimTime crash_at,
                            SimTime notice_at) {
  Instance& inst = mutable_instance(id);
  WIRE_REQUIRE(inst.state == InstanceState::Ready,
               "can only doom a ready instance");
  WIRE_REQUIRE(notice_at <= crash_at, "revocation notice after the crash");
  inst.crash_at = crash_at;
  inst.crash_notice_at = notice_at;
}

bool CloudPool::revocation_announced(InstanceId id, SimTime now) const {
  const Instance& inst = instance(id);
  return inst.state != InstanceState::Terminated &&
         inst.crash_notice_at >= 0.0 && now >= inst.crash_notice_at;
}

SimTime CloudPool::time_to_next_charge(InstanceId id, SimTime now) const {
  const Instance& inst = instance(id);
  WIRE_REQUIRE(inst.state == InstanceState::Ready, "instance not ready");
  WIRE_REQUIRE(now >= inst.ready_at - 1e-9, "query before charge start");
  const double u = config_.charging_unit_seconds;
  const double elapsed = std::max(0.0, now - inst.ready_at);
  // Exactly on a boundary a fresh unit has just started, so a full unit
  // remains; any time past it, even a sliver below the billing epsilon, is
  // taken off that unit.
  return u - std::fmod(elapsed, u);
}

double CloudPool::charged_units(InstanceId id, SimTime end) const {
  const Instance& inst = instance(id);
  if (inst.state == InstanceState::Provisioning) return 0.0;
  SimTime stop = end;
  if (inst.state == InstanceState::Terminated) {
    stop = std::min(stop, inst.terminated_at);
  }
  if (inst.state != InstanceState::Provisioning && stop <= inst.ready_at) {
    // Never reached usable life before the accounting horizon.
    return inst.state == InstanceState::Terminated &&
           inst.terminated_at <= inst.ready_at ? 0.0 : 1.0;
  }
  const double alive = stop - inst.ready_at;
  const double u = config_.charging_unit_seconds;
  return std::max(1.0, std::ceil((alive - kBillingEps) / u));
}

double CloudPool::total_charged_units(SimTime end) const {
  double total = 0.0;
  for (const Instance& inst : instances_) {
    if (inst.state == InstanceState::Provisioning) {
      // Still booting at the horizon: bills its first unit on arrival; count
      // nothing (the driver terminates all instances at run end, so this only
      // happens for mid-run queries).
      continue;
    }
    total += charged_units(inst.id, end);
  }
  return total;
}

double CloudPool::total_ready_seconds(SimTime end) const {
  double total = 0.0;
  for (const Instance& inst : instances_) {
    if (inst.state == InstanceState::Provisioning) continue;
    SimTime stop = end;
    if (inst.state == InstanceState::Terminated) {
      stop = std::min(stop, inst.terminated_at);
    }
    total += std::max(0.0, stop - inst.ready_at);
  }
  return total;
}

}  // namespace wire::sim
