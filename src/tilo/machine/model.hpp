// The pluggable machine-model interface.
//
// The paper's cost model (cost.hpp) assumes *ideal* overlap: every
// DMA-offloaded B-stage is free to the CPU, every link is identical, and
// the per-message costs are affine.  mach::Model turns that single shape
// into one implementation among several:
//
//   IdealOverlapModel   the paper's eqs. (3)-(5) exactly — bit-for-bit the
//                       free-function step_cost() path;
//   InterferenceModel   imperfect overlap: per-stage overlap efficiency
//                       beta (offloaded stages steal (1-beta) of their
//                       duration from the CPU) and an Mcrit two-slope
//                       per-message kernel-copy curve (mpptest-style:
//                       short messages pay a steeper per-byte cost);
//   HeteroLinkModel     per-(src,dst) wire bandwidth/latency overrides
//                       plus a switch-contention multiplier on the wire
//                       stages when several flows share the switch;
//   OffloadModel        configurable offload levels generalizing paper
//                       Fig. 3 (a)/(b)/(c): each stage class is either on
//                       the CPU or on the DMA/NIC engine, with optional
//                       duplex channels and RDMA-style MPI-fill offload.
//
// The interface exposes the per-stage/per-message hooks the discrete-event
// simulator consumes (so timed runs and closed-form predictions share one
// cost source) and a non-virtual step() that reproduces step_cost()'s
// accumulation exactly — which is what makes IdealOverlapModel's results
// byte-identical to the historical MachineParams path.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tilo/machine/cost.hpp"
#include "tilo/machine/params.hpp"

namespace tilo::mach {

class Model {
 public:
  explicit Model(MachineParams params) : params_(params) {}
  virtual ~Model() = default;

  /// Registry name of the concrete model ("ideal", "interference", ...).
  virtual std::string kind() const = 0;
  /// True only for the model that reproduces the paper's ideal-overlap
  /// costs exactly; callers use this to keep the closed-form analytic
  /// fast path (and its bytes) for the historical machine shape.
  virtual bool ideal() const { return false; }

  /// The scalar machine parameters every model is built on.
  const MachineParams& params() const { return params_; }

  // --- per-stage hooks (seconds), the simulator's cost source ----------
  // Every stage and interference hook must be a pure function of its
  // arguments (and of the model's construction-time state): msg::Cluster
  // memoizes each result per run on the hook's arguments, so a hook that
  // answered differently on a repeated call would not be asked again.
  /// A1/A3: CPU cost to fill/drain the user-space MPI buffer.
  virtual double fill_mpi_seconds(i64 bytes) const {
    return params_.fill_mpi_buffer.at(bytes);
  }
  /// B2/B3: kernel buffer copy for one message.
  virtual double fill_kernel_seconds(i64 bytes) const {
    return params_.fill_kernel_buffer.at(bytes);
  }
  /// B1/B4: one wire half of one message on link src -> dst (negative
  /// endpoint = the homogeneous default link).
  virtual double half_wire_seconds(i64 bytes, int src = -1,
                                   int dst = -1) const {
    (void)src;
    (void)dst;
    return 0.5 * params_.t_t * static_cast<double>(bytes);
  }
  /// Per-message propagation delay on link src -> dst.
  virtual double wire_latency_seconds(int src = -1, int dst = -1) const {
    (void)src;
    (void)dst;
    return params_.wire_latency;
  }
  /// A2: tile computation (cache model included).
  virtual double compute_seconds(i64 iterations, i64 working_set_bytes) const {
    return static_cast<double>(iterations) * params_.t_c *
           params_.cache.factor(working_set_bytes);
  }

  // --- interference hooks ----------------------------------------------
  /// CPU seconds stolen from the compute thread while one offloaded send
  /// (recv) of `bytes` proceeds "in the background".  Zero for perfect
  /// overlap; the simulator charges these as guarded extra CPU stalls, so
  /// a zero-returning model leaves event traces untouched.
  virtual double send_interference_seconds(i64 bytes) const {
    (void)bytes;
    return 0.0;
  }
  virtual double recv_interference_seconds(i64 bytes) const {
    (void)bytes;
    return 0.0;
  }

  /// The A/B decomposition of one step under this model's per-stage
  /// costs.  Non-virtual: the accumulation order replicates the free
  /// step_cost() exactly, so a model whose hooks match MachineParams'
  /// expressions produces bit-identical StepCosts.
  StepCost step(const StepShape& shape) const;

  /// Step duration at the given overlap level.  The default combines the
  /// stages the ideal way (paper Fig. 3); models with imperfect overlap
  /// or custom offload override this.
  virtual double step_seconds(const StepShape& shape,
                              OverlapLevel level) const {
    return step(shape).step_time(level);
  }

 private:
  MachineParams params_;
};

/// The paper's model, verbatim: perfect overlap, homogeneous links,
/// affine per-message costs.  Reproduces step_cost()/predict_completion()
/// byte-for-byte (pinned by model_test and the regression tests).
class IdealOverlapModel final : public Model {
 public:
  explicit IdealOverlapModel(MachineParams params) : Model(params) {}
  std::string kind() const override { return "ideal"; }
  bool ideal() const override { return true; }
};

/// Imperfect-overlap knobs.
struct InterferenceConfig {
  /// Fraction of each kernel-copy stage (B2, B3) that truly overlaps;
  /// the remaining (1 - beta) burns CPU alongside A1+A2+A3.
  double beta_kernel = 1.0;
  /// Same for the wire stages (B1, B4): on a shared memory bus the NIC's
  /// DMA steals cycles from the CPU.
  double beta_wire = 1.0;
  /// Two-slope breakpoint of the kernel-copy cost (bytes): below Mcrit
  /// the per-byte cost is multiplied by factor_below (mpptest's
  /// short-message regime).  0 keeps the affine curve.
  i64 mcrit = 0;
  double factor_below = 1.0;
};

class InterferenceModel final : public Model {
 public:
  InterferenceModel(MachineParams params, InterferenceConfig config)
      : Model(params), config_(config) {}
  std::string kind() const override { return "interference"; }
  const InterferenceConfig& config() const { return config_; }

  double fill_kernel_seconds(i64 bytes) const override;
  double send_interference_seconds(i64 bytes) const override;
  double recv_interference_seconds(i64 bytes) const override;
  /// max(A + extra, B) where extra = (1-beta_kernel)(B2+B3) +
  /// (1-beta_wire)(B1+B4).  With beta = 1 extra is exactly 0.0 and the
  /// result is bit-identical to the ideal combination.
  double step_seconds(const StepShape& shape,
                      OverlapLevel level) const override;

 private:
  InterferenceConfig config_;
};

/// One directed link override.
struct LinkParams {
  int src = -1;
  int dst = -1;
  double t_t = 0.0;      ///< wire seconds per byte on this link
  double latency = 0.0;  ///< per-message propagation delay
};

/// Heterogeneous-interconnect knobs.
struct HeteroConfig {
  std::vector<LinkParams> links;  ///< unlisted links use MachineParams
  /// Switch contention: the wire stages of a step are stretched by
  /// (1 + contention * (flows - 1)) when `flows` messages of the step
  /// cross the switch concurrently.
  double contention = 0.0;
};

class HeteroLinkModel final : public Model {
 public:
  HeteroLinkModel(MachineParams params, HeteroConfig config)
      : Model(params), config_(std::move(config)) {}
  std::string kind() const override { return "hetero"; }
  const HeteroConfig& config() const { return config_; }

  double half_wire_seconds(i64 bytes, int src = -1,
                           int dst = -1) const override;
  double wire_latency_seconds(int src = -1, int dst = -1) const override;
  double step_seconds(const StepShape& shape,
                      OverlapLevel level) const override;

 private:
  const LinkParams* find(int src, int dst) const;
  HeteroConfig config_;
};

/// Which stages the communication engine takes off the CPU — the
/// generalization of paper Fig. 3's three fixed levels.
struct OffloadSpec {
  bool kernel_recv = true;  ///< B2 on the DMA engine
  bool kernel_send = true;  ///< B3 on the DMA engine
  bool wire = true;         ///< B1/B4 on the NIC
  bool duplex = false;      ///< independent send and receive channels
  bool mpi_fill = false;    ///< A1/A3 offloaded too (RDMA-style)

  static OffloadSpec none();        ///< Fig. 3 (a): everything on the CPU
  static OffloadSpec dma();         ///< Fig. 3 (b)
  static OffloadSpec duplex_dma();  ///< Fig. 3 (c)
  static OffloadSpec rdma();        ///< zero-copy: only A2 stays on the CPU
};

/// A model whose overlap level is a property of the machine, not of the
/// query: non-offloaded B-stages migrate to the CPU side, and the spec's
/// duplex flag decides whether the offloaded legs serialize.  The `level`
/// argument of step_seconds is ignored (the spec subsumes it); the model
/// is consumed by the analytic/prediction layer, not the simulator's
/// stage machinery.
class OffloadModel final : public Model {
 public:
  OffloadModel(MachineParams params, OffloadSpec spec)
      : Model(params), spec_(spec) {}
  std::string kind() const override { return "offload"; }
  const OffloadSpec& spec() const { return spec_; }

  double step_seconds(const StepShape& shape,
                      OverlapLevel level) const override;

 private:
  OffloadSpec spec_;
};

/// Builds a registry model by name over the given base parameters, or
/// nullptr for an unknown name.  Names (see model_names()):
///   "ideal"           IdealOverlapModel
///   "interference"    InterferenceModel with the default non-ideal knobs
///                     (beta_kernel 0.5, beta_wire 0.9, Mcrit 8 KiB at
///                     1.5x per-byte)
///   "hetero"          HeteroLinkModel with 10% switch contention
///   "offload-none" / "offload-dma" / "offload-duplex" / "offload-rdma"
///                     OffloadModel at the corresponding preset
std::shared_ptr<const Model> make_model(const std::string& name,
                                        const MachineParams& params);

/// The names make_model accepts, for diagnostics.
std::vector<std::string> model_names();

/// The model that prices every cost: `model`, or the paper's ideal-overlap
/// model over `params` when `model` is null.
std::shared_ptr<const Model> model_or_ideal(std::shared_ptr<const Model> model,
                                            const MachineParams& params);

}  // namespace tilo::mach
