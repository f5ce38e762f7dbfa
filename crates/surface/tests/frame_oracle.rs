//! Frame-vs-tableau differential oracle for the code-capacity sweep.
//!
//! `run_ler_surface` samples syndromes with the 64-lane Pauli-frame
//! sampler and never builds a tableau. This oracle keeps the tableau
//! path as a test-only twin: the same batch loop run on the shot-sliced
//! stabilizer engine, with the ESM circuit executed gate by gate and the
//! failure word read as the observable's expectation. It checks, at
//! d = 3…13 for both error kinds and several seeds,
//!
//! - that identical injected error words give the frame sampler's
//!   detecting-family syndrome words lane for lane equal to the
//!   tableau's, and its failure word (under arbitrary correction words)
//!   equal to the tableau's expectation word;
//! - that the driver's `SurfaceLerOutcome` is byte-identical to the
//!   tableau loop's, including a partial last batch.

use qpdo_circuit::{Circuit, Gate, OperationKind};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_stabilizer::{ShotSlicedSim, LANES};
use qpdo_surface::experiment::{run_ler_surface, SurfaceLerConfig, SurfaceLerOutcome};
use qpdo_surface::{CheckKind, FrameSampler, RotatedSurfaceCode, UnionFindDecoder};

const DISTANCES: [usize; 6] = [3, 5, 7, 9, 11, 13];
const KINDS: [CheckKind; 2] = [CheckKind::X, CheckKind::Z];
const SEEDS: [u64; 3] = [1, 0xC0FFEE, 2017];

fn detecting(error: CheckKind) -> CheckKind {
    match error {
        CheckKind::X => CheckKind::Z,
        CheckKind::Z => CheckKind::X,
    }
}

/// The tableau twin of the sampler: `|0…0⟩` (or `|+…+⟩` for Z errors)
/// on a fresh shot-sliced engine, the error words injected as masked
/// Paulis, and one ESM round executed gate by gate. Returns the engine
/// and every qubit's last measurement word.
fn tableau_round(
    code: &RotatedSurfaceCode,
    esm: &Circuit,
    error: CheckKind,
    errors: &[u64],
    rng: &mut StdRng,
) -> (ShotSlicedSim, Vec<u64>) {
    let mut sim = ShotSlicedSim::new(code.num_qubits());
    for (q, &word) in errors.iter().enumerate() {
        match error {
            CheckKind::X => sim.x_masked(q, word),
            CheckKind::Z => {
                sim.h(q);
                sim.z_masked(q, word);
            }
        }
    }
    let mut meas = vec![0u64; code.num_qubits()];
    for op in esm.operations() {
        let q = op.qubits();
        match op.kind() {
            OperationKind::Prep => sim.reset_with(q[0], |_| rng.gen::<bool>()),
            OperationKind::Measure => meas[q[0]] = sim.measure_with(q[0], |_| rng.gen::<bool>()),
            OperationKind::Gate(Gate::H) => sim.h(q[0]),
            OperationKind::Gate(Gate::Cnot) => sim.cnot(q[0], q[1]),
            OperationKind::Gate(gate) => {
                unreachable!("ESM rounds use only H and CNOT, not {gate:?}")
            }
        }
    }
    (sim, meas)
}

/// Applies correction words to the tableau and reads the threatened
/// logical observable's expectation word (the failure word).
fn tableau_failure_word(
    sim: &mut ShotSlicedSim,
    code: &RotatedSurfaceCode,
    error: CheckKind,
    corrections: &[u64],
) -> u64 {
    for (q, &word) in corrections.iter().enumerate() {
        match error {
            CheckKind::X => sim.x_masked(q, word),
            CheckKind::Z => sim.z_masked(q, word),
        }
    }
    let observable = match error {
        CheckKind::X => code.logical_z_string(),
        CheckKind::Z => code.logical_x_string(),
    };
    sim.expectation(&observable)
        .expect("the logical observable stays deterministic through ESM + correction")
}

/// The `run_ler_surface` batch loop on the tableau: same per-batch
/// substreams, same error draws, same decoder, tableau extraction.
fn tableau_outcome(config: &SurfaceLerConfig) -> SurfaceLerOutcome {
    let code = RotatedSurfaceCode::new(config.distance);
    let decoder = UnionFindDecoder::new(&code, config.error);
    let esm = code.esm_circuit();
    let ancillas: Vec<usize> = code
        .checks_of(detecting(config.error))
        .map(|ch| ch.ancilla)
        .collect();
    let mut outcome = SurfaceLerOutcome {
        shots: 0,
        failures: 0,
        defects: 0,
    };
    let mut syndrome = vec![false; ancillas.len()];
    let mut correction = Vec::new();
    for batch in 0..config.shots.div_ceil(LANES as u64) {
        let lanes = (config.shots - batch * LANES as u64).min(LANES as u64);
        let mask = if lanes == LANES as u64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        let mut rng =
            StdRng::seed_from_u64(config.seed ^ (batch + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut err = vec![0u64; code.num_data_qubits()];
        for word in &mut err {
            for lane in 0..LANES {
                if rng.gen_bool(config.physical_error_rate) {
                    *word |= 1 << lane;
                }
            }
        }
        let (mut sim, meas) = tableau_round(&code, &esm, config.error, &err, &mut rng);
        let mut corr = vec![0u64; code.num_data_qubits()];
        for lane in 0..LANES {
            for (s, &anc) in syndrome.iter_mut().zip(&ancillas) {
                *s = (meas[anc] >> lane) & 1 == 1;
            }
            decoder.decode_into(&syndrome, &mut correction);
            for &q in &correction {
                corr[q] |= 1 << lane;
            }
        }
        let fail_word = tableau_failure_word(&mut sim, &code, config.error, &corr);
        outcome.shots += lanes;
        outcome.failures += u64::from((fail_word & mask).count_ones());
        for &anc in &ancillas {
            outcome.defects += u64::from((meas[anc] & mask).count_ones());
        }
    }
    outcome
}

#[test]
fn detecting_syndromes_and_failure_words_match_the_tableau() {
    for d in DISTANCES {
        let code = RotatedSurfaceCode::new(d);
        let esm = code.esm_circuit();
        for error in KINDS {
            let mut sampler = FrameSampler::new(&code, error);
            for seed in SEEDS {
                let mut rng = StdRng::seed_from_u64(seed ^ d as u64);
                // Dense and sparse error words, and random corrections.
                let p = if seed % 2 == 0 { 0.05 } else { 0.3 };
                let err: Vec<u64> = (0..code.num_data_qubits())
                    .map(|_| (0..LANES).fold(0u64, |w, k| w | u64::from(rng.gen_bool(p)) << k))
                    .collect();
                let corr: Vec<u64> = (0..code.num_data_qubits())
                    .map(|_| rng.gen::<u64>() & rng.gen::<u64>())
                    .collect();

                let frame_meas = sampler.extract(&err, &mut rng).to_vec();
                let frame_fail = sampler.failure_word(&corr);
                let (mut sim, sim_meas) = tableau_round(&code, &esm, error, &err, &mut rng);
                for ch in code.checks_of(detecting(error)) {
                    assert_eq!(
                        frame_meas[ch.ancilla], sim_meas[ch.ancilla],
                        "d={d} {error:?} seed={seed}: syndrome word of ancilla {} differs",
                        ch.ancilla
                    );
                }
                assert_eq!(
                    frame_fail,
                    tableau_failure_word(&mut sim, &code, error, &corr),
                    "d={d} {error:?} seed={seed}: failure words differ"
                );
            }
        }
    }
}

#[test]
fn outcomes_are_byte_identical_to_the_tableau_loop() {
    // Two whole batches and a 23-lane partial tail.
    let shots = 2 * LANES as u64 + 23;
    for d in DISTANCES {
        for error in KINDS {
            for seed in SEEDS {
                // Near the threshold, so every decoder path sees defects.
                let config = SurfaceLerConfig {
                    distance: d,
                    physical_error_rate: 0.08,
                    error,
                    shots,
                    seed,
                };
                let frame = run_ler_surface(&config).unwrap();
                assert!(frame.defects > 0, "d={d} {error:?}: workload too thin");
                assert_eq!(
                    frame,
                    tableau_outcome(&config),
                    "d={d} {error:?} seed={seed}: frame and tableau outcomes differ"
                );
            }
        }
    }
}
