//! Gate dispatch onto the shot-sliced engine, as the sweep drivers do it.

use qpdo_circuit::Gate;
use qpdo_stabilizer::ShotSlicedSim;

/// Applies one Clifford gate of an ESM schedule to all 64 lanes.
pub fn apply(sim: &mut ShotSlicedSim, gate: Gate, q: &[usize]) {
    match gate {
        Gate::I => {}
        Gate::X => sim.x(q[0]),
        Gate::Y => sim.y(q[0]),
        Gate::Z => sim.z(q[0]),
        Gate::H => sim.h(q[0]),
        Gate::S => sim.s(q[0]),
        Gate::Sdg => sim.sdg(q[0]),
        Gate::Cnot => sim.cnot(q[0], q[1]),
        Gate::Cz => sim.cz(q[0], q[1]),
        Gate::Swap => sim.swap(q[0], q[1]),
        Gate::T | Gate::Tdg | Gate::Toffoli => unreachable!("ESM schedules are Clifford-only"),
    }
}
