//! The code-state reference the frame sampler relies on.
//!
//! `FrameSampler` reports every outcome as a constant reference XOR the
//! frame's flip word, with reference 0 for every ancilla and +1 for the
//! threatened logical observable. This file pins that reference on the
//! scalar tableau: a noiseless ESM round on `|0…0⟩` (X errors) or
//! `|+…+⟩` (Z errors) leaves every detecting-family ancilla
//! deterministically 0 just before measurement, every opposite-family
//! ancilla random, and the observable at +1. It also checks that the
//! sampler's gauge makes the random family's outcome bits unbiased.

use qpdo_circuit::{Gate, OperationKind};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_stabilizer::{StabilizerSim, LANES};
use qpdo_surface::{CheckKind, FrameSampler, RotatedSurfaceCode};

fn opposite(kind: CheckKind) -> CheckKind {
    match kind {
        CheckKind::X => CheckKind::Z,
        CheckKind::Z => CheckKind::X,
    }
}

#[test]
fn noiseless_round_has_the_zero_reference() {
    let mut rng = StdRng::seed_from_u64(13);
    for d in [3, 5, 7, 9, 11, 13] {
        let code = RotatedSurfaceCode::new(d);
        for error in [CheckKind::X, CheckKind::Z] {
            let mut sim = StabilizerSim::new(code.num_qubits());
            if error == CheckKind::Z {
                for q in 0..code.num_data_qubits() {
                    sim.h(q);
                }
            }
            let esm = code.esm_circuit();
            let (measure_slot, body) = esm.slots().split_last().expect("a non-empty round");
            for op in body.iter().flat_map(|slot| slot.operations()) {
                let q = op.qubits();
                match op.kind() {
                    OperationKind::Prep => sim.reset(q[0], &mut rng),
                    OperationKind::Gate(Gate::H) => sim.h(q[0]),
                    OperationKind::Gate(Gate::Cnot) => sim.cnot(q[0], q[1]),
                    other => panic!("unexpected {other:?} before the measurement slot"),
                }
            }
            for ch in code.checks_of(opposite(error)) {
                assert_eq!(
                    sim.peek_deterministic(ch.ancilla),
                    Some(false),
                    "d={d} {error:?}: detecting ancilla {} is not deterministically 0",
                    ch.ancilla
                );
            }
            for ch in code.checks_of(error) {
                assert_eq!(
                    sim.peek_deterministic(ch.ancilla),
                    None,
                    "d={d} {error:?}: opposite-family ancilla {} is not random",
                    ch.ancilla
                );
            }
            for op in measure_slot.operations() {
                assert!(op.is_measure(), "the last ESM slot measures");
                sim.measure(op.qubits()[0], &mut rng);
            }
            let observable = match error {
                CheckKind::X => code.logical_z_string(),
                CheckKind::Z => code.logical_x_string(),
            };
            assert_eq!(
                sim.expectation(&observable),
                Some(false),
                "d={d} {error:?}: the observable is not deterministically +1"
            );
        }
    }
}

#[test]
fn sampled_opposite_family_outcomes_are_unbiased() {
    const BATCHES: usize = 1000;
    let code = RotatedSurfaceCode::new(5);
    for error in [CheckKind::X, CheckKind::Z] {
        let mut sampler = FrameSampler::new(&code, error);
        let mut rng = StdRng::seed_from_u64(0x5EED ^ error as u64);
        let random: Vec<usize> = code.checks_of(error).map(|ch| ch.ancilla).collect();
        let mut ones = vec![0u64; random.len()];
        for _ in 0..BATCHES {
            let errors: Vec<u64> = (0..code.num_data_qubits())
                .map(|_| rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>())
                .collect();
            let meas = sampler.extract(&errors, &mut rng);
            for (count, &anc) in ones.iter_mut().zip(&random) {
                *count += u64::from(meas[anc].count_ones());
            }
        }
        // Each ancilla alone, and all of them pooled, within 5σ of ½.
        let within_5_sigma = |ones: u64, bits: u64| {
            let (mean, sigma) = (bits as f64 / 2.0, (bits as f64).sqrt() / 2.0);
            (ones as f64 - mean).abs() <= 5.0 * sigma
        };
        let per_ancilla = (BATCHES * LANES) as u64;
        for (&count, &anc) in ones.iter().zip(&random) {
            assert!(
                within_5_sigma(count, per_ancilla),
                "{error:?}: ancilla {anc} read 1 in {count} of {per_ancilla} lane-bits"
            );
        }
        let total: u64 = ones.iter().sum();
        assert!(
            within_5_sigma(total, per_ancilla * random.len() as u64),
            "{error:?}: pooled opposite-family bias ({total} ones)"
        );
    }
}
