#include "tilo/core/problem.hpp"

#include "tilo/loopnest/workloads.hpp"
#include "tilo/util/error.hpp"

namespace tilo::core {

std::size_t Problem::mapped_dim() const {
  // The paper picks the largest dimension of the original space ("We
  // selected k dimension to be the largest one").
  const lat::Box& dom = nest.domain();
  std::size_t best = 0;
  for (std::size_t d = 1; d < dom.dims(); ++d)
    if (dom.extent(d) > dom.extent(best)) best = d;
  return best;
}

lat::Vec Problem::tile_sides(i64 V) const {
  TILO_REQUIRE(V >= 1, "tile height V must be >= 1");
  const std::size_t md = mapped_dim();
  const lat::Box& dom = nest.domain();
  TILO_REQUIRE(procs.size() == dom.dims(), "procs dimensionality mismatch");
  lat::Vec sides(dom.dims());
  for (std::size_t d = 0; d < dom.dims(); ++d) {
    if (d == md) {
      sides[d] = std::min(V, dom.extent(d));
    } else {
      TILO_REQUIRE(procs[d] >= 1, "bad processor count in dimension ", d);
      sides[d] = util::ceil_div(dom.extent(d), procs[d]);
    }
  }
  return sides;
}

std::shared_ptr<const mach::Model> Problem::cost_model() const {
  return mach::model_or_ideal(model, machine);
}

TilePlan Problem::plan(i64 V, ScheduleKind kind) const {
  return exec::make_plan_explicit(nest, tile::RectTiling(tile_sides(V)),
                                  kind, mapped_dim(), procs);
}

i64 Problem::max_tile_height() const {
  return nest.domain().extent(mapped_dim());
}

Problem paper_problem_i() {
  return Problem{loop::paper_space_i(), mach::MachineParams::paper_cluster(),
                 lat::Vec{4, 4, 1}, nullptr};
}

Problem paper_problem_ii() {
  return Problem{loop::paper_space_ii(),
                 mach::MachineParams::paper_cluster(), lat::Vec{4, 4, 1},
                 nullptr};
}

Problem paper_problem_iii() {
  return Problem{loop::paper_space_iii(),
                 mach::MachineParams::paper_cluster(), lat::Vec{4, 4, 1},
                 nullptr};
}

}  // namespace tilo::core
