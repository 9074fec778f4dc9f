#include "tilo/machine/model.hpp"

#include <algorithm>

#include "tilo/util/error.hpp"

namespace tilo::mach {

StepCost Model::step(const StepShape& shape) const {
  // Accumulation order mirrors step_cost() exactly (cost.cpp): with the
  // default hooks every expression below is the same arithmetic on the
  // same operands, so the result is bit-identical.
  TILO_REQUIRE(shape.iterations >= 0, "negative iteration count");
  StepCost c;
  c.a2 = compute_seconds(shape.iterations, shape.working_set_bytes);
  for (i64 bytes : shape.send_bytes) {
    TILO_REQUIRE(bytes >= 0, "negative send size");
    c.a1 += fill_mpi_seconds(bytes);
    c.b3 += fill_kernel_seconds(bytes);
    c.b4 += half_wire_seconds(bytes) + wire_latency_seconds();
  }
  for (i64 bytes : shape.recv_bytes) {
    TILO_REQUIRE(bytes >= 0, "negative recv size");
    c.a3 += fill_mpi_seconds(bytes);
    c.b2 += fill_kernel_seconds(bytes);
    c.b1 += half_wire_seconds(bytes);
  }
  return c;
}

// --- InterferenceModel ---------------------------------------------------

double InterferenceModel::fill_kernel_seconds(i64 bytes) const {
  const AffineCost& fk = params().fill_kernel_buffer;
  if (config_.mcrit <= 0) return fk.at(bytes);
  // Two-slope curve: per-byte cost is factor_below * per_byte up to
  // Mcrit, per_byte beyond it (continuous at the breakpoint).
  const double below =
      static_cast<double>(std::min<i64>(bytes, config_.mcrit));
  const double above =
      static_cast<double>(std::max<i64>(0, bytes - config_.mcrit));
  return fk.base + fk.per_byte * (config_.factor_below * below + above);
}

double InterferenceModel::send_interference_seconds(i64 bytes) const {
  return (1.0 - config_.beta_kernel) * fill_kernel_seconds(bytes) +
         (1.0 - config_.beta_wire) * half_wire_seconds(bytes);
}

double InterferenceModel::recv_interference_seconds(i64 bytes) const {
  return (1.0 - config_.beta_kernel) * fill_kernel_seconds(bytes) +
         (1.0 - config_.beta_wire) * half_wire_seconds(bytes);
}

double InterferenceModel::step_seconds(const StepShape& shape,
                                       OverlapLevel level) const {
  const StepCost c = step(shape);
  if (level == OverlapLevel::kNone) return c.cpu_side() + c.comm_side();
  // The CPU pays (1 - beta) of every stage that nominally overlaps.
  // With beta = 1 `extra` is exactly 0.0 and cpu + 0.0 == cpu bitwise,
  // so the result matches the ideal combination bit-for-bit.
  const double extra =
      (1.0 - config_.beta_kernel) * (c.b2 + c.b3) +
      (1.0 - config_.beta_wire) * (c.b1 + c.b4);
  if (level == OverlapLevel::kDma)
    return std::max(c.cpu_side() + extra, c.comm_side());
  return std::max(c.cpu_side() + extra,
                  std::max(c.b1 + c.b2, c.b3 + c.b4));
}

// --- HeteroLinkModel -----------------------------------------------------

const LinkParams* HeteroLinkModel::find(int src, int dst) const {
  for (const LinkParams& l : config_.links)
    if (l.src == src && l.dst == dst) return &l;
  return nullptr;
}

double HeteroLinkModel::half_wire_seconds(i64 bytes, int src,
                                          int dst) const {
  const LinkParams* l = find(src, dst);
  const double t_t = l ? l->t_t : params().t_t;
  return 0.5 * t_t * static_cast<double>(bytes);
}

double HeteroLinkModel::wire_latency_seconds(int src, int dst) const {
  const LinkParams* l = find(src, dst);
  return l ? l->latency : params().wire_latency;
}

double HeteroLinkModel::step_seconds(const StepShape& shape,
                                     OverlapLevel level) const {
  StepCost c = step(shape);
  // All of the step's messages contend for the switch at once; each extra
  // concurrent flow stretches the wire stages.
  const i64 flows = static_cast<i64>(shape.send_bytes.size()) +
                    static_cast<i64>(shape.recv_bytes.size());
  if (config_.contention > 0.0 && flows > 1) {
    const double factor =
        1.0 + config_.contention * static_cast<double>(flows - 1);
    c.b1 *= factor;
    c.b4 *= factor;
  }
  return c.step_time(level);
}

// --- OffloadModel --------------------------------------------------------

OffloadSpec OffloadSpec::none() {
  return OffloadSpec{false, false, false, false, false};
}
OffloadSpec OffloadSpec::dma() {
  return OffloadSpec{true, true, true, false, false};
}
OffloadSpec OffloadSpec::duplex_dma() {
  return OffloadSpec{true, true, true, true, false};
}
OffloadSpec OffloadSpec::rdma() {
  return OffloadSpec{true, true, true, true, true};
}

double OffloadModel::step_seconds(const StepShape& shape,
                                  OverlapLevel level) const {
  (void)level;  // the spec *is* the overlap level
  const StepCost c = step(shape);
  double cpu = c.a2;
  double send_leg = 0.0;  // engine work ordered behind the send channel
  double recv_leg = 0.0;
  if (spec_.mpi_fill) {
    send_leg += c.a1;
    recv_leg += c.a3;
  } else {
    cpu += c.a1 + c.a3;
  }
  (spec_.kernel_send ? send_leg : cpu) += c.b3;
  (spec_.kernel_recv ? recv_leg : cpu) += c.b2;
  (spec_.wire ? send_leg : cpu) += c.b4;
  (spec_.wire ? recv_leg : cpu) += c.b1;
  const double engine =
      spec_.duplex ? std::max(send_leg, recv_leg) : send_leg + recv_leg;
  return std::max(cpu, engine);
}

// --- registry ------------------------------------------------------------

std::shared_ptr<const Model> model_or_ideal(std::shared_ptr<const Model> model,
                                            const MachineParams& params) {
  if (model) return model;
  return std::make_shared<IdealOverlapModel>(params);
}

std::shared_ptr<const Model> make_model(const std::string& name,
                                        const MachineParams& params) {
  if (name == "ideal") return std::make_shared<IdealOverlapModel>(params);
  if (name == "interference") {
    InterferenceConfig c;
    c.beta_kernel = 0.5;
    c.beta_wire = 0.9;
    c.mcrit = 8192;
    c.factor_below = 1.5;
    return std::make_shared<InterferenceModel>(params, c);
  }
  if (name == "hetero") {
    HeteroConfig c;
    c.contention = 0.1;
    return std::make_shared<HeteroLinkModel>(params, std::move(c));
  }
  if (name == "offload-none")
    return std::make_shared<OffloadModel>(params, OffloadSpec::none());
  if (name == "offload-dma")
    return std::make_shared<OffloadModel>(params, OffloadSpec::dma());
  if (name == "offload-duplex")
    return std::make_shared<OffloadModel>(params, OffloadSpec::duplex_dma());
  if (name == "offload-rdma")
    return std::make_shared<OffloadModel>(params, OffloadSpec::rdma());
  return nullptr;
}

std::vector<std::string> model_names() {
  return {"ideal",        "interference",   "hetero",      "offload-none",
          "offload-dma",  "offload-duplex", "offload-rdma"};
}

}  // namespace tilo::mach
