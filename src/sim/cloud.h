// Instance pool lifecycle and billing — the simulated IaaS provider.
//
// Models the ExoGENI-style contract WIRE programs against: instance requests
// come up after the provisioning lag; each ready instance is billed per
// *started* charging unit from boot completion; terminating mid-unit forfeits
// the remainder of the paid unit (which is why the steering policy prefers
// draining instances exactly at their charge boundary).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/config.h"
#include "sim/monitor.h"
#include "util/check.h"

namespace wire::sim {

/// Lifecycle state of a simulated instance.
enum class InstanceState : std::uint8_t {
  Provisioning,
  Ready,
  Terminated,
};

struct Instance {
  InstanceId id = kInvalidInstance;
  InstanceState state = InstanceState::Provisioning;
  SimTime requested_at = 0.0;
  SimTime ready_at = 0.0;      // boot completion == charge start
  SimTime terminated_at = -1.0;
  /// Scheduled drain time (charge boundary); negative if not draining.
  SimTime drain_at = -1.0;
  /// Fault injection: scheduled crash/revocation time; negative if this
  /// instance never crashes.
  SimTime crash_at = -1.0;
  /// Time from which the revocation is announced to the controller
  /// (`crash_at - notice`, clamped to the ready time); negative if no crash.
  SimTime crash_notice_at = -1.0;
  /// Ground-truth speed factor (hidden from the controller).
  double speed_factor = 1.0;
};

/// Owns all instances of a run (live and terminated) and their billing.
class CloudPool {
 public:
  explicit CloudPool(const CloudConfig& config) : config_(config) {}

  /// Requests a new instance at `now`; it becomes Ready at now + lag.
  /// `speed_factor` comes from the variability model. Returns its id.
  /// The caller is responsible for respecting the site capacity (the driver
  /// clips requests so policies cannot exceed it). A non-negative
  /// `lag_override` replaces the configured provisioning lag (fault
  /// injection: straggler boots).
  InstanceId request(SimTime now, double speed_factor,
                     SimTime lag_override = -1.0);

  /// Requests an instance that is Ready immediately (initial pool at t = 0).
  InstanceId request_ready(SimTime now, double speed_factor);

  /// Transitions a Provisioning instance to Ready (driver calls this when the
  /// InstanceReady event fires).
  void mark_ready(InstanceId id, SimTime now);

  /// Terminates immediately. Any charging unit already started is still paid.
  void terminate(InstanceId id, SimTime now);

  /// Schedules the instance to drain at its next charge boundary (>= now).
  /// Returns the drain time (the driver schedules an InstanceDrain event).
  SimTime schedule_drain(InstanceId id, SimTime now);

  /// Cancels a pending drain (e.g. the policy changed its mind on a later
  /// tick). No-op if the instance is not draining.
  void cancel_drain(InstanceId id);

  /// Fault injection: dooms a Ready instance to crash at `crash_at`, with the
  /// revocation announced from `notice_at` (<= crash_at) onward. The engine
  /// terminates it when the InstanceCrash event fires.
  void mark_doomed(InstanceId id, SimTime crash_at, SimTime notice_at);

  /// True when the instance's revocation has been announced (monitoring rows
  /// report it so policies stop counting the instance as stable capacity).
  bool revocation_announced(InstanceId id, SimTime now) const;

  const Instance& instance(InstanceId id) const {
    WIRE_REQUIRE(id < instances_.size(), "unknown instance id");
    return instances_[id];
  }
  /// A dispatch target: Ready, not draining, past its boot. Depends only on
  /// the instance and `now`.
  bool is_usable(InstanceId id, SimTime now) const {
    const Instance& inst = instance(id);
    return inst.state == InstanceState::Ready && inst.drain_at < 0.0 &&
           now >= inst.ready_at;
  }

  /// All instances that are Provisioning or Ready (not terminated), in
  /// ascending id order. terminate() and new requests invalidate iterators:
  /// do not change the pool while iterating it.
  const std::vector<InstanceId>& live() const { return live_ids_; }

  /// Count of live instances (Provisioning + Ready) — what site capacity
  /// constrains.
  std::uint32_t live_count() const {
    return static_cast<std::uint32_t>(live_ids_.size());
  }

  std::uint32_t peak_live() const { return peak_live_; }

  /// Remaining paid time in the current unit: u - ((now - ready_at) mod u).
  /// Requires a Ready instance and now >= ready_at.
  SimTime time_to_next_charge(InstanceId id, SimTime now) const;

  /// Charging units consumed by one instance as of `end` (its termination
  /// time if terminated earlier). Partial units round up; a Ready instance
  /// always pays at least one unit. Provisioning time is not billed.
  double charged_units(InstanceId id, SimTime end) const;

  /// Total charging units across all instances as of `end`.
  double total_charged_units(SimTime end) const;

  /// Total seconds instances spent Ready (alive) as of `end` — the
  /// denominator for utilization metrics.
  double total_ready_seconds(SimTime end) const;

  std::size_t instance_count() const { return instances_.size(); }
  const std::vector<Instance>& instances() const { return instances_; }

 private:
  Instance& mutable_instance(InstanceId id);

  CloudConfig config_;
  std::vector<Instance> instances_;
  /// Ids of non-terminated instances, kept sorted (ids are assigned in
  /// increasing order; terminate() erases in place). Makes live()/live_count()
  /// and dispatch scans O(live pool) instead of O(instances ever created) —
  /// the difference matters once long ensemble runs accumulate thousands of
  /// retired instances per tenant.
  std::vector<InstanceId> live_ids_;
  std::uint32_t peak_live_ = 0;
};

}  // namespace wire::sim
