#include "tilo/core/predict.hpp"

#include "tilo/exec/regions.hpp"
#include "tilo/util/error.hpp"

namespace tilo::core {

mach::StepShape steady_step_shape(const TilePlan& plan,
                                  const mach::MachineParams& params) {
  const tile::TiledSpace& space = plan.space;
  const lat::Box& ts = space.tile_space();
  lat::Vec mid(ts.dims());
  for (std::size_t d = 0; d < ts.dims(); ++d)
    mid[d] = (ts.lo()[d] + ts.hi()[d]) / 2;

  mach::StepShape shape;
  shape.iterations = space.tile_iterations(mid).volume();
  {
    const lat::Box box = space.tile_iterations(mid);
    i64 cells = box.volume();
    for (std::size_t d = 0; d < box.dims(); ++d) {
      const i64 halo = space.deps().max_component(d);
      if (halo > 0) cells += (box.volume() / box.extent(d)) * halo;
    }
    shape.working_set_bytes = cells * params.bytes_per_element;
  }
  const i64 self = plan.mapping.rank_of_tile(mid);
  for (const exec::TileComm& out : exec::outgoing(space, mid)) {
    if (plan.mapping.rank_of_tile(mid + out.offset) == self) continue;
    shape.send_bytes.push_back(
        util::checked_mul(out.points, params.bytes_per_element));
  }
  for (const exec::TileComm& in : exec::incoming(space, mid)) {
    if (plan.mapping.rank_of_tile(mid - in.offset) == self) continue;
    shape.recv_bytes.push_back(
        util::checked_mul(in.points, params.bytes_per_element));
  }
  return shape;
}

double predict_completion(const TilePlan& plan, const mach::Model& model,
                          mach::OverlapLevel level) {
  const mach::StepShape shape = steady_step_shape(plan, model.params());
  const i64 P = plan.schedule_length();
  TILO_REQUIRE(P >= 0, "negative schedule length");
  if (plan.kind == sched::ScheduleKind::kNonOverlap)
    return static_cast<double>(P) *
           model.step_seconds(shape, mach::OverlapLevel::kNone);
  return static_cast<double>(P) * model.step_seconds(shape, level);
}

double predict_overlap_cpu_bound(const TilePlan& plan,
                                 const mach::Model& model) {
  TILO_REQUIRE(plan.kind == sched::ScheduleKind::kOverlap,
               "eq. (5) applies to overlapping plans");
  const mach::StepShape shape = steady_step_shape(plan, model.params());
  return static_cast<double>(plan.schedule_length()) *
         model.step(shape).cpu_side();
}

}  // namespace tilo::core
