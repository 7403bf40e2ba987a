#include "core/schedule.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>

namespace autopipe::core {

double Schedule::op_duration_ms(int device, const ScheduleOp& op) const {
  const StageCost& cost = durations[device][op.chunk];
  double whole = 0;
  switch (op.type) {
    case OpType::Forward:        whole = cost.fwd_ms; break;
    case OpType::Backward:       whole = cost.bwd_ms; break;
    case OpType::BackwardInput:  whole = cost.bwd_input_ms; break;
    case OpType::BackwardWeight: whole = cost.bwd_weight_ms; break;
  }
  return op.is_half() ? whole / 2.0 : whole;
}

namespace {

void require(bool condition, const std::string& message) {
  if (!condition) throw std::invalid_argument(message);
}

/// Emits FP or BP of one logical micro-batch, split when mb < sliced.
void emit(std::vector<ScheduleOp>& order, OpType type, int mb, int sliced) {
  if (mb < sliced) {
    order.push_back({type, mb, 0, 0, false});
    order.push_back({type, mb, 1, 0, false});
  } else {
    order.push_back({type, mb, -1, 0, false});
  }
}

}  // namespace

Schedule build_sliced_1f1b(std::span<const StageCost> stages,
                           int micro_batches, const CommModel& comm,
                           int sliced) {
  const int n = static_cast<int>(stages.size());
  const int m = micro_batches;
  require(n >= 1, "schedule needs at least one stage");
  require(m >= n, "1F1B requires micro_batches >= stages");
  require(sliced >= 0 && sliced <= m, "invalid sliced micro-batch count");

  Schedule s;
  s.kind = sliced > 0 ? ScheduleKind::AutoPipeSliced : ScheduleKind::OneFOneB;
  s.num_stages = n;
  s.num_micro_batches = m;
  s.sliced_micro_batches = sliced;
  s.boundary_comm_ms = comm.boundary_costs(n);
  s.durations.resize(n);
  s.order.resize(n);

  for (int x = 0; x < n; ++x) {
    s.durations[x] = {stages[x]};
    auto& order = s.order[x];
    const int warm = n - 1 - x;
    const int steady = m - n + x + 1;
    for (int k = 0; k < warm; ++k) emit(order, OpType::Forward, k, sliced);
    for (int y = 0; y < steady; ++y) {
      emit(order, OpType::Forward, warm + y, sliced);
      emit(order, OpType::Backward, y, sliced);
    }
    for (int mb = steady; mb < m; ++mb) {
      emit(order, OpType::Backward, mb, sliced);
    }
    // §III-C blockage fix: for sliced micro-batches after the first, the
    // receiving stage is already busy when the first half arrives, so the
    // early transfer only blocks the channel ("once micro-batch 1 is
    // sliced, the communication of the first half will be blocked at stage
    // 2"). Cancel it and aggregate with the second half's transfer.
    // Micro-batch 0 is exempt: its halves pipeline into idle stages and
    // carry the halved startup overhead of Fig. 8(b).
    if (x < n - 1) {
      for (auto& op : order) {
        if (op.type == OpType::Forward && op.half == 0 &&
            op.micro_batch >= 1 && op.micro_batch < sliced) {
          op.aggregated_comm = true;
        }
      }
    }
  }
  return s;
}

Schedule build_1f1b(std::span<const StageCost> stages, int micro_batches,
                    const CommModel& comm) {
  return build_sliced_1f1b(stages, micro_batches, comm, 0);
}

Schedule build_gpipe(std::span<const StageCost> stages, int micro_batches,
                     const CommModel& comm) {
  const int n = static_cast<int>(stages.size());
  const int m = micro_batches;
  require(n >= 1 && m >= 1, "gpipe needs stages and micro-batches");

  Schedule s;
  s.kind = ScheduleKind::GPipe;
  s.num_stages = n;
  s.num_micro_batches = m;
  s.boundary_comm_ms = comm.boundary_costs(n);
  s.durations.resize(n);
  s.order.resize(n);
  for (int x = 0; x < n; ++x) {
    s.durations[x] = {stages[x]};
    for (int mb = 0; mb < m; ++mb) {
      s.order[x].push_back({OpType::Forward, mb, -1, 0, false});
    }
    for (int mb = m - 1; mb >= 0; --mb) {
      s.order[x].push_back({OpType::Backward, mb, -1, 0, false});
    }
  }
  return s;
}

Schedule build_interleaved(
    const std::vector<std::vector<StageCost>>& chunk_costs, int micro_batches,
    const CommModel& comm) {
  const int n = static_cast<int>(chunk_costs.size());
  require(n >= 1, "interleaved needs devices");
  const int v = static_cast<int>(chunk_costs.front().size());
  for (const auto& per_device : chunk_costs) {
    require(static_cast<int>(per_device.size()) == v,
            "interleaved requires the same chunk count on every device");
  }
  const int m = micro_batches;
  require(v >= 1, "interleaved needs at least one chunk");
  require(m % n == 0,
          "Megatron interleaved schedule requires micro_batches % stages == 0");

  Schedule s;
  s.kind = ScheduleKind::Interleaved;
  s.num_stages = n;
  s.num_micro_batches = m;
  s.chunks = v;
  s.boundary_comm_ms = comm.boundary_costs(n, v);
  s.durations = chunk_costs;
  s.order.resize(n);

  const int total = m * v;  // forward items per device (same for backward)
  const int group = n * v;
  auto forward_of = [&](int item) {
    const int chunk = (item % group) / n;
    const int mb = (item / group) * n + (item % n);
    return ScheduleOp{OpType::Forward, mb, -1, chunk, false};
  };
  auto backward_of = [&](int item) {
    const int chunk = v - 1 - (item % group) / n;
    const int mb = (item / group) * n + (item % n);
    return ScheduleOp{OpType::Backward, mb, -1, chunk, false};
  };

  for (int dev = 0; dev < n; ++dev) {
    auto& order = s.order[dev];
    const int warm = std::min((n - dev - 1) * 2 + (v - 1) * n, total);
    for (int i = 0; i < warm; ++i) order.push_back(forward_of(i));
    for (int i = warm; i < total; ++i) {
      order.push_back(forward_of(i));
      order.push_back(backward_of(i - warm));
    }
    for (int i = total - warm; i < total; ++i) order.push_back(backward_of(i));
  }
  return s;
}

Schedule make_zero_bubble(std::span<const StageCost> stages, int micro_batches,
                          const CommModel& comm) {
  const int n = static_cast<int>(stages.size());
  const int m = micro_batches;
  require(n >= 1, "schedule needs at least one stage");
  require(m >= n, "zero-bubble requires micro_batches >= stages");

  Schedule s;
  s.kind = ScheduleKind::ZeroBubble;
  s.num_stages = n;
  s.num_micro_batches = m;
  s.boundary_comm_ms = comm.boundary_costs(n);
  s.durations.resize(n);
  s.order.resize(n);
  for (int x = 0; x < n; ++x) {
    StageCost c = stages[x];
    if (c.bwd_input_ms <= 0.0 && c.bwd_weight_ms <= 0.0) {
      // Hand-assembled costs carry only the fused time; assume the usual
      // recompute shape: grad-input (incl. recompute) 2/3, grad-weight 1/3.
      c.bwd_input_ms = c.bwd_ms * (2.0 / 3.0);
      c.bwd_weight_ms = c.bwd_ms - c.bwd_input_ms;
    }
    s.durations[x] = {c};
  }

  // Event-driven greedy list construction. Per device: grad-input the moment
  // its downstream dx has arrived (1F1B discipline), forwards while under the
  // in-flight cap, and deferred grad-weight ops filling gaps that provably
  // fit (or unconditionally once nothing else can be pending). An op is only
  // committed once every producer it needs has a known end time, so the
  // constructed order realizes exactly the timing this greedy saw.
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> t_free(n, 0.0);
  std::vector<int> next_f(n, 0), next_b(n, 0), in_flight(n, 0);
  std::vector<std::deque<int>> pending(n);
  std::vector<std::vector<double>> end_f(n, std::vector<double>(m, kInf));
  std::vector<std::vector<double>> end_b(n, std::vector<double>(m, kInf));

  int remaining = 3 * n * m;
  bool progress = true;
  while (remaining > 0) {
    if (!progress) throw std::logic_error("zero-bubble builder stalled");
    progress = false;
    for (int x = 0; x < n; ++x) {
      const int cap_f = n - x;                    // in-flight forwards
      const int cap_w = std::max(0, n - 1 - x);   // deferred grad-weights
      const double f_ms = s.durations[x][0].fwd_ms;
      const double b_ms = s.durations[x][0].bwd_input_ms;
      const double w_ms = s.durations[x][0].bwd_weight_ms;
      for (;;) {
        const double now = t_free[x];
        auto commit = [&](OpType type, int mb, double ready, double dur) {
          s.order[x].push_back({type, mb, -1, 0, false});
          const double end = std::max(now, ready) + dur;
          t_free[x] = end;
          --remaining;
          progress = true;
          return end;
        };
        if (static_cast<int>(pending[x].size()) > cap_w) {
          const int mb = pending[x].front();
          pending[x].pop_front();
          commit(OpType::BackwardWeight, mb, now, w_ms);
          continue;
        }
        const bool has_f = next_f[x] < m;
        const bool has_b = next_b[x] < m;
        double avail_f = kInf, avail_b = kInf;
        if (has_f) {
          avail_f = x == 0 ? 0.0
                    : end_f[x - 1][next_f[x]] == kInf
                        ? kInf
                        : end_f[x - 1][next_f[x]] + s.hop_ms(x - 1);
        }
        if (has_b) {
          avail_b = x == n - 1 ? end_f[x][next_b[x]]
                    : end_b[x + 1][next_b[x]] == kInf
                        ? kInf
                        : end_b[x + 1][next_b[x]] + s.hop_ms(x);
        }
        if (has_b && avail_b <= now) {
          end_b[x][next_b[x]] = commit(OpType::BackwardInput, next_b[x],
                                       avail_b, b_ms);
          pending[x].push_back(next_b[x]);
          ++next_b[x];
          --in_flight[x];
          continue;
        }
        if (has_f && avail_f <= now && in_flight[x] < cap_f) {
          end_f[x][next_f[x]] = commit(OpType::Forward, next_f[x], avail_f,
                                       f_ms);
          ++next_f[x];
          ++in_flight[x];
          continue;
        }
        // Idle until something arrives. Arrivals whose producer is not yet
        // scheduled are unknown; they never gate a decision (the producer's
        // device is itself waiting on this one's forwards in the worst
        // case), only known future arrivals do.
        double next_arrival = kInf;
        if (has_b && avail_b != kInf) {
          next_arrival = std::min(next_arrival, avail_b);
        }
        if (has_f && avail_f != kInf && in_flight[x] < cap_f) {
          next_arrival = std::min(next_arrival, avail_f);
        }
        if (!pending[x].empty() &&
            (next_arrival == kInf ? !has_b && !has_f
                                  : now + w_ms <= next_arrival)) {
          const int mb = pending[x].front();
          pending[x].pop_front();
          commit(OpType::BackwardWeight, mb, now, w_ms);
          continue;
        }
        if (next_arrival != kInf && next_arrival > now) {
          t_free[x] = next_arrival;
          progress = true;
          continue;
        }
        if (!pending[x].empty() && !has_b && !has_f) {
          const int mb = pending[x].front();
          pending[x].pop_front();
          commit(OpType::BackwardWeight, mb, now, w_ms);
          continue;
        }
        break;  // blocked on an unknown producer; revisit next pass
      }
    }
  }
  return s;
}

Schedule build_schedule(ScheduleKind kind, std::span<const StageCost> stages,
                        int micro_batches, const CommModel& comm,
                        const BuildScheduleOptions& opts) {
  switch (kind) {
    case ScheduleKind::OneFOneB:
      return build_1f1b(stages, micro_batches, comm);
    case ScheduleKind::GPipe:
      return build_gpipe(stages, micro_batches, comm);
    case ScheduleKind::AutoPipeSliced:
      return build_sliced_1f1b(stages, micro_batches, comm, opts.sliced);
    case ScheduleKind::Interleaved: {
      std::vector<std::vector<StageCost>> rows;
      rows.reserve(stages.size());
      for (const StageCost& c : stages) {
        rows.push_back(std::vector<StageCost>(
            static_cast<std::size_t>(std::max(1, opts.chunks)), c));
      }
      return build_interleaved(rows, micro_batches, comm);
    }
    case ScheduleKind::ZeroBubble:
      return make_zero_bubble(stages, micro_batches, comm);
  }
  throw std::invalid_argument("unknown schedule kind");
}

void validate(const Schedule& schedule) {
  const int n = schedule.num_stages;
  if (static_cast<int>(schedule.order.size()) != n ||
      static_cast<int>(schedule.durations.size()) != n) {
    throw std::logic_error("schedule arrays disagree with num_stages");
  }
  if (static_cast<int>(schedule.boundary_comm_ms.size()) !=
      schedule.chunks * n - 1) {
    throw std::logic_error(
        "schedule must carry one comm cost per global stage boundary");
  }
  for (double c : schedule.boundary_comm_ms) {
    if (!(c >= 0.0) || !std::isfinite(c)) {
      throw std::logic_error("schedule boundary comm costs must be finite, >= 0");
    }
  }
  // Per-device flags, one slot per (micro-batch, chunk, half) -- half -1,
  // 0, 1 -- and op type.
  const auto slot = [&](const ScheduleOp& op) {
    return (static_cast<std::size_t>(op.micro_batch) * schedule.chunks +
            op.chunk) * 3 + (op.half + 1);
  };
  const std::size_t slots = static_cast<std::size_t>(
      std::max(0, schedule.num_micro_batches) * std::max(0, schedule.chunks) *
      3);
  std::vector<char> seen, forward_done, binput_done;
  for (int dev = 0; dev < n; ++dev) {
    seen.assign(slots * 4, 0);
    forward_done.assign(slots, 0);
    binput_done.assign(slots, 0);
    // Exactly one forward per (micro-batch, chunk) -- counting a half pair
    // as one -- and exactly one backward: either fused, or a grad-input /
    // grad-weight pair (never both forms for the same micro-batch).
    double forwards = 0, backwards = 0, binputs = 0, bweights = 0;
    for (const auto& op : schedule.order[dev]) {
      if (op.micro_batch < 0 || op.micro_batch >= schedule.num_micro_batches ||
          op.chunk < 0 || op.chunk >= schedule.chunks || op.half < -1 ||
          op.half > 1) {
        throw std::logic_error("schedule op out of range");
      }
      const std::size_t at = slot(op);
      if (seen[at * 4 + static_cast<int>(op.type)]++) {
        throw std::logic_error("duplicate schedule op");
      }
      const double weight = op.is_half() ? 0.5 : 1.0;
      switch (op.type) {
        case OpType::Forward:
          forward_done[at] = 1;
          forwards += weight;
          break;
        case OpType::Backward:
        case OpType::BackwardInput:
          if (!forward_done[at]) {
            throw std::logic_error("backward before forward on a device");
          }
          if (op.type == OpType::BackwardInput) {
            binput_done[at] = 1;
            binputs += weight;
          } else {
            backwards += weight;
          }
          break;
        case OpType::BackwardWeight:
          if (!binput_done[at]) {
            throw std::logic_error(
                "grad-weight before its grad-input on a device");
          }
          bweights += weight;
          break;
      }
    }
    const double expected =
        static_cast<double>(schedule.num_micro_batches) * schedule.chunks;
    if (forwards != expected || backwards + binputs != expected ||
        backwards + bweights != expected) {
      throw std::logic_error("schedule does not cover every micro-batch");
    }
  }
}

}  // namespace autopipe::core
