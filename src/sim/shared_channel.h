// A processor-sharing channel: the one implementation behind the engine's
// transfer fabric and its checkpoint-write channel.
//
// Every active flow progresses at min(per_flow_cap, capacity / n) for n
// active flows. A single epoch-stamped guard event (of the channel's guard
// kind, aux = epoch) tracks the earliest projected completion and is
// re-armed whenever the active set or the capacity changes; a guard that
// carries an older epoch is stale and must be ignored by its handler.
// Flows belong to task attempts: the owner decides which attempts are still
// alive and what a dead attempt's flow costs, through the callbacks of
// settle() and purge().
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "dag/workflow.h"
#include "sim/event_queue.h"
#include "util/check.h"

namespace wire::sim {

class SharedChannel {
 public:
  struct Flow {
    dag::TaskId task = dag::kInvalidTask;
    std::uint32_t attempt = 0;
    /// Transfer direction (fabric flows only).
    bool inbound = true;
    double remaining_mb = 0.0;
    /// When the flow joined the channel.
    SimTime started = 0.0;
  };

  SharedChannel(EventKind guard_kind, double capacity,
                double per_flow_cap = std::numeric_limits<double>::infinity())
      : guard_kind_(guard_kind),
        capacity_(capacity),
        per_flow_cap_(per_flow_cap) {}

  double capacity() const { return capacity_; }

  /// True if the guard event `e` carries the current epoch.
  bool guard_current(const Event& e) const { return e.aux == epoch_; }

  /// Adds a flow at `now` and re-arms the guard.
  void add(const Flow& flow, SimTime now, EventQueue& queue) {
    advance(now);
    flows_.push_back(flow);
    arm(now, queue);
  }

  /// Switches the capacity at `now`: in-flight flows ran at the old rate
  /// until now, and the projected earliest completion moves.
  void set_capacity(double capacity, SimTime now, EventQueue& queue) {
    advance(now);
    capacity_ = capacity;
    if (!flows_.empty()) arm(now, queue);
  }

  /// Guard handler: advances to `now`, drops the flows whose attempt is no
  /// longer `alive` (handing each to `on_stale`), re-arms the guard and
  /// overwrites `finished` with the completed flows in channel order (the
  /// caller owns the buffer, so a guard allocates nothing once it is warm).
  template <class Alive, class OnStale>
  void settle(SimTime now, EventQueue& queue, Alive&& alive,
              OnStale&& on_stale, std::vector<Flow>& finished) {
    advance(now);
    finished.clear();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      const Flow f = flows_[i];
      if (!alive(f)) {
        on_stale(f);
      } else if (f.remaining_mb <= 1e-9) {
        finished.push_back(f);
      } else {
        flows_[keep++] = f;
      }
    }
    flows_.resize(keep);
    arm(now, queue);
  }

  /// Drops the flows whose attempt is no longer `alive` (handing each to
  /// `on_stale`); re-arms the guard only if one was dropped. Call wherever an
  /// attempt can be killed.
  template <class Alive, class OnStale>
  void purge(SimTime now, EventQueue& queue, Alive&& alive,
             OnStale&& on_stale) {
    if (flows_.empty()) return;
    advance(now);
    std::size_t keep = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (alive(flows_[i])) {
        flows_[keep++] = flows_[i];
      } else {
        on_stale(flows_[i]);
      }
    }
    if (keep != flows_.size()) {
      flows_.resize(keep);
      arm(now, queue);
    }
  }

 private:
  double rate() const {
    if (flows_.empty()) return 0.0;
    return std::min(per_flow_cap_,
                    capacity_ / static_cast<double>(flows_.size()));
  }

  void advance(SimTime now) {
    const double r = rate();
    const double dt = now - updated_;
    if (dt > 0.0 && r > 0.0) {
      for (Flow& f : flows_) f.remaining_mb -= r * dt;
    }
    updated_ = now;
  }

  void arm(SimTime now, EventQueue& queue) {
    ++epoch_;
    if (flows_.empty()) return;
    const double r = rate();
    WIRE_CHECK(r > 0.0, "active channel flows with zero rate");
    double min_remaining = flows_.front().remaining_mb;
    for (const Flow& f : flows_) {
      min_remaining = std::min(min_remaining, f.remaining_mb);
    }
    queue.schedule(now + std::max(0.0, min_remaining) / r, guard_kind_, 0,
                   epoch_);
  }

  EventKind guard_kind_;
  double capacity_;
  double per_flow_cap_;
  std::vector<Flow> flows_;
  SimTime updated_ = 0.0;
  std::uint32_t epoch_ = 0;
};

}  // namespace wire::sim
