// The one schedule evaluator: a longest-path pass over a Schedule's
// dependency graph (time_schedule), and its analytic front end
// evaluate_schedule. sim::execute runs the same pass with overhead, jitter
// and faults folded in, so the two agree bit-for-bit whenever those are off.
//
// The graph has one node per schedule op, indexed device-major. Edges are
// intra-device serialization (each op waits for its predecessor in device
// order, no lag) and cross-stage transfers lagged by the schedule's
// per-boundary comm costs, with the §III-C halved/aggregated sliced-half
// lags. Start times are relaxed in topological (Kahn) order, so every op's
// start and every producer's end are final when the fault plan sees them.
#include "core/schedule.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "faults/fault_plan.h"

namespace autopipe::core {

ScheduleTiming time_schedule(const Schedule& schedule,
                             std::vector<double> durations_ms,
                             const faults::FaultPlan* faults) {
  const int n = schedule.num_stages;
  const int m = schedule.num_micro_batches;
  const int last_global = schedule.chunks * n - 1;

  // Nodes, device-major, and a dense index from (global stage, op type,
  // micro-batch, half) to node id; chunks fold into the global stage.
  constexpr int kTypes = 4;   // F, B, BackwardInput, BackwardWeight
  constexpr int kHalves = 3;  // whole (-1), first (0), second (1)
  const auto key = [m](int global, OpType type, int mb, int half) {
    return ((static_cast<std::size_t>(global) * kTypes +
             static_cast<std::size_t>(type)) * m + mb) * kHalves + (half + 1);
  };
  std::vector<int> index(
      static_cast<std::size_t>(last_global + 1) * kTypes * m * kHalves, -1);
  const auto find = [&](int global, OpType type, int mb, int half) {
    return index[key(global, type, mb, half)];
  };
  struct Node {
    const ScheduleOp* op;
    int device;
    int global;
  };
  std::vector<Node> nodes;
  nodes.reserve(durations_ms.size());
  for (int dev = 0; dev < n; ++dev) {
    for (const ScheduleOp& op : schedule.order[dev]) {
      const int global = schedule.global_stage(dev, op.chunk);
      int& id = index[key(global, op.type, op.micro_batch, op.half)];
      if (id >= 0) throw std::logic_error("duplicate op across devices");
      id = static_cast<int>(nodes.size());
      nodes.push_back({&op, dev, global});
    }
  }
  const int total = static_cast<int>(nodes.size());
  if (static_cast<int>(durations_ms.size()) != total) {
    throw std::invalid_argument("time_schedule needs one duration per op");
  }

  // Cross-stage transfers: each op receives at most one, from its producer
  // one global stage up (forward) or down (backward).
  ScheduleTiming t;
  t.transfer_pred.assign(total, -1);
  std::vector<double> transfer_lag(total, 0.0);
  for (int id = 0; id < total; ++id) {
    const ScheduleOp& op = *nodes[id].op;
    const int global = nodes[id].global;
    if (op.type == OpType::Forward && global > 0) {
      const double whole_hop = schedule.hop_ms(global - 1);
      int producer = find(global - 1, OpType::Forward, op.micro_batch, op.half);
      double lag = op.is_half() ? whole_hop / 2.0 : whole_hop;
      if (producer >= 0 && op.half == 0 &&
          nodes[producer].op->aggregated_comm) {
        // §III-C: the producer defers the first-half transfer and ships both
        // halves after the second half completes, as one full-size message.
        const int second = find(global - 1, OpType::Forward, op.micro_batch, 1);
        if (second >= 0) {
          producer = second;
          lag = whole_hop;
        }
      }
      if (producer < 0) {
        throw std::logic_error("forward op has no upstream producer");
      }
      t.transfer_pred[id] = producer;
      transfer_lag[id] = lag;
    }
    if ((op.type == OpType::Backward || op.type == OpType::BackwardInput) &&
        global < last_global) {
      // The dx producer downstream: the same backward form, falling back to
      // the other form so fused and split stages can coexist in one
      // schedule. BackwardWeight is local and adds no cross-stage edge.
      const double whole_hop = schedule.hop_ms(global);
      int producer = find(global + 1, op.type, op.micro_batch, op.half);
      if (producer < 0) {
        producer = find(global + 1,
                        op.type == OpType::Backward ? OpType::BackwardInput
                                                    : OpType::Backward,
                        op.micro_batch, op.half);
      }
      if (producer < 0) {
        throw std::logic_error("backward op has no downstream producer");
      }
      t.transfer_pred[id] = producer;
      transfer_lag[id] = op.is_half() ? whole_hop / 2.0 : whole_hop;
    }
  }

  // Flat out-edge arrays grouped by producer: first the edge to the next op
  // on the same device, then transfers in consumer order. A transfer edge
  // records its upstream boundary; a same-device edge has -1.
  const auto has_next = [&](int id) {
    return id + 1 < total && nodes[id + 1].device == nodes[id].device;
  };
  std::vector<int> indegree(total, 0);
  std::vector<int> edge_begin(total + 1, 0);
  for (int id = 0; id < total; ++id) {
    if (has_next(id)) {
      ++edge_begin[id + 1];
      ++indegree[id + 1];
    }
    if (t.transfer_pred[id] >= 0) {
      ++edge_begin[t.transfer_pred[id] + 1];
      ++indegree[id];
    }
  }
  for (int id = 0; id < total; ++id) edge_begin[id + 1] += edge_begin[id];
  std::vector<int> edge_to(edge_begin[total]);
  std::vector<double> edge_lag(edge_begin[total], 0.0);
  std::vector<int> edge_boundary(edge_begin[total], -1);
  std::vector<int> fill(edge_begin.begin(), edge_begin.end() - 1);
  for (int id = 0; id < total; ++id) {
    if (has_next(id)) edge_to[fill[id]++] = id + 1;
  }
  for (int id = 0; id < total; ++id) {
    const int from = t.transfer_pred[id];
    if (from < 0) continue;
    const int e = fill[from]++;
    edge_to[e] = id;
    edge_lag[e] = transfer_lag[id];
    edge_boundary[e] = std::min(nodes[from].global, nodes[id].global);
  }

  // Longest-path relaxation in Kahn order. Among equally late predecessors
  // the binding one is on the higher device -- the same tie-break the
  // analytic simulator uses, keeping the critical path the unique one
  // "closest to the last pipeline stage" (Fig. 4). A fault plan stretches
  // an op by its straggler slowdown at its final start, and a transfer by
  // link spikes and outage retries at its producer's final end.
  t.start_ms.assign(total, 0.0);
  t.end_ms.assign(total, 0.0);
  t.binding_pred.assign(total, -1);
  t.order.reserve(total);
  std::vector<int> ready;
  for (int id = 0; id < total; ++id) {
    if (indegree[id] == 0) ready.push_back(id);
  }
  while (!ready.empty()) {
    const int id = ready.back();
    ready.pop_back();
    t.order.push_back(id);
    const int device = nodes[id].device;
    if (faults) {
      const double factor = faults->slowdown(device, t.start_ms[id]);
      const double d = durations_ms[id];
      durations_ms[id] = factor == 1.0 ? d : d * factor;
    }
    const double end = t.start_ms[id] + durations_ms[id];
    t.end_ms[id] = end;
    for (int e = edge_begin[id]; e < edge_begin[id + 1]; ++e) {
      double lag = edge_lag[e];
      if (faults && edge_boundary[e] >= 0) {
        const faults::TransferOutcome out =
            faults->transfer(edge_boundary[e], end, lag);
        t.link_retries += out.retries;
        lag = out.lag_ms;
      }
      const double arrival = end + lag;
      const int to = edge_to[e];
      const int pred = t.binding_pred[to];
      if (arrival > t.start_ms[to] ||
          (arrival == t.start_ms[to] &&
           (pred < 0 || device > nodes[pred].device))) {
        t.start_ms[to] = arrival;
        t.binding_pred[to] = id;
      }
      if (--indegree[to] == 0) ready.push_back(to);
    }
  }
  if (static_cast<int>(t.order.size()) != total) {
    throw std::logic_error("schedule dependency graph has a cycle");
  }
  t.duration_ms = std::move(durations_ms);
  return t;
}

ScheduleEval evaluate_schedule(const Schedule& schedule) {
  validate(schedule);
  const int n = schedule.num_stages;

  std::vector<double> durations;
  for (int dev = 0; dev < n; ++dev) {
    for (const ScheduleOp& op : schedule.order[dev]) {
      durations.push_back(schedule.op_duration_ms(dev, op));
    }
  }
  const ScheduleTiming timing =
      time_schedule(schedule, std::move(durations), nullptr);
  ScheduleEval eval;
  eval.ops.reserve(timing.start_ms.size());
  for (int dev = 0; dev < n; ++dev) {
    for (const ScheduleOp& op : schedule.order[dev]) {
      const std::size_t id = eval.ops.size();
      eval.ops.push_back({op, dev, timing.start_ms[id], timing.end_ms[id],
                          timing.binding_pred[id], false});
    }
  }

  // Results: makespan, startup (first forward on the last device), and the
  // critical path backtracked from the op that finishes last (ties toward
  // the higher device).
  const int total = static_cast<int>(eval.ops.size());
  int tail = -1;
  bool startup_found = false;
  for (int id = 0; id < total; ++id) {
    const EvalOp& op = eval.ops[id];
    eval.iteration_ms = std::max(eval.iteration_ms, op.end_ms);
    if (tail < 0 || op.end_ms > eval.ops[tail].end_ms ||
        (op.end_ms == eval.ops[tail].end_ms &&
         op.device > eval.ops[tail].device)) {
      tail = id;
    }
    if (op.op.type == OpType::Forward && op.device == n - 1 &&
        (!startup_found || op.start_ms < eval.startup_ms)) {
      eval.startup_ms = op.start_ms;
      startup_found = true;
    }
  }
  for (int cur = tail; cur >= 0; cur = eval.ops[cur].critical_pred) {
    eval.ops[cur].on_critical_path = true;
    eval.critical_path.push_back(cur);
  }
  std::reverse(eval.critical_path.begin(), eval.critical_path.end());
  return eval;
}

}  // namespace autopipe::core
