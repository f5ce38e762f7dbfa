//! The distance-scaling LER experiments.
//!
//! Two drivers live here:
//!
//! - [`run_distance_ler`] — the circuit-level ablation the paper's
//!   Chapter 6 calls for (does a Pauli frame change the logical error
//!   rate for `d > 3`?). The protocol follows Listing 5.7 with the
//!   natural `d`-generalizations: each window runs `d − 1` ESM rounds;
//!   stable two-round syndrome patterns decode through the matching
//!   decoder; the correction goes through the stack — where a
//!   Pauli-frame layer absorbs it without touching the qubits.
//! - [`run_ler_surface`] — the code-capacity Monte-Carlo sweep behind
//!   the d = 3…13 threshold workload, 64 shots per batch: i.i.d. data
//!   errors drawn as one lane word per data qubit, syndromes sampled by
//!   propagating those words as a 64-lane Pauli frame through the real
//!   ESM circuit ([`FrameSampler`] — no tableau, the paper's frame idea
//!   applied to the simulator itself), every lane decoded by the
//!   union-find decoder, and logical failures read off the frame as one
//!   lane word.

use std::cell::RefCell;
use std::collections::HashMap;

use qpdo_core::{
    ChpCore, ControlStack, CoreError, CounterLayer, DepolarizingModel, ErrorCounts, PauliFrameLayer,
};
use qpdo_pauli::{Pauli, PauliString};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_stabilizer::LANES;

use crate::{CheckKind, FrameSampler, MatchingDecoder, RotatedSurfaceCode, UnionFindDecoder};
use qpdo_circuit::{Circuit, Gate, Operation, TimeSlot};

/// Configuration of a distance-scaling LER run (always watches for
/// logical X errors on `|0⟩_L`, the representative case).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistanceLerConfig {
    /// Code distance (odd, ≥ 3).
    pub distance: usize,
    /// Physical error rate.
    pub physical_error_rate: f64,
    /// Whether the stack includes a Pauli-frame layer.
    pub with_pauli_frame: bool,
    /// Stop after this many logical errors.
    pub target_logical_errors: u64,
    /// Safety cap on windows.
    pub max_windows: u64,
    /// RNG seed.
    pub seed: u64,
}

/// The result of a distance-scaling LER run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistanceLerOutcome {
    /// Windows executed.
    pub windows: u64,
    /// Logical errors counted.
    pub logical_errors: u64,
    /// Operations entering the stack above the frame.
    pub ops_above_frame: u64,
    /// Operations reaching the core below the frame.
    pub ops_below_frame: u64,
    /// Time slots entering above the frame.
    pub slots_above_frame: u64,
    /// Time slots reaching below the frame.
    pub slots_below_frame: u64,
    /// Injected physical errors.
    pub injected: ErrorCounts,
}

impl DistanceLerOutcome {
    /// The logical error rate `m / R`.
    #[must_use]
    pub fn ler(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.logical_errors as f64 / self.windows as f64
        }
    }
}

/// Runs one distance-`d` LER experiment.
///
/// # Errors
///
/// Propagates stack errors.
///
/// # Panics
///
/// Panics on invalid distance or error rate.
pub fn run_distance_ler(config: &DistanceLerConfig) -> Result<DistanceLerOutcome, CoreError> {
    let code = RotatedSurfaceCode::new(config.distance);
    let x_decoder = MatchingDecoder::new(&code, CheckKind::X); // Z-check syndromes
    let z_decoder = MatchingDecoder::new(&code, CheckKind::Z); // X-check syndromes

    let below = CounterLayer::new();
    let below_counts = below.counters();
    let above = CounterLayer::new();
    let above_counts = above.counters();

    let mut stack = ControlStack::with_seed(ChpCore::new(), config.seed);
    stack.push_layer(below);
    if config.with_pauli_frame {
        stack.push_layer(PauliFrameLayer::new());
    }
    stack.push_layer(above);
    stack.set_error_model(DepolarizingModel::new(config.physical_error_rate));
    stack.create_qubits(code.num_qubits())?;

    initialize_zero(&mut stack, &code, &z_decoder)?;
    above_counts.reset();
    below_counts.reset();

    let mut reference =
        logical_z_value(&mut stack, &code).expect("fresh |0>_L has a deterministic logical value");
    let rounds = code.distance() - 1;
    let mut windows = 0u64;
    let mut logical_errors = 0u64;

    while logical_errors < config.target_logical_errors && windows < config.max_windows {
        // One window: d-1 rounds processed as (d-1)/2 decode cycles of
        // two rounds each — the SC17 scheme repeated. A syndrome pattern
        // is decoded only when it is identical in both rounds of a cycle
        // (whole-pattern stability — see qpdo-surface17's SyndromeTracker
        // for why per-check rules turn single mid-round faults into
        // logical errors); an unstable pattern defers to the next cycle.
        for _ in 0..rounds / 2 {
            let mut pair: Vec<(Vec<bool>, Vec<bool>)> = Vec::with_capacity(2);
            for _ in 0..2 {
                stack.execute_now(code.esm_circuit())?;
                pair.push(read_syndromes(&stack, &code));
            }
            let stable = |a: &Vec<bool>, b: &Vec<bool>| -> Vec<bool> {
                if a == b {
                    a.clone()
                } else {
                    vec![false; a.len()]
                }
            };
            // Stable Z-check patterns (X errors) decode to X corrections,
            // stable X-check patterns to Z corrections.
            let x_corrections = x_decoder.decode(&stable(&pair[0].1, &pair[1].1));
            let z_corrections = z_decoder.decode(&stable(&pair[0].0, &pair[1].0));
            if let Some(slot) = correction_slot(&x_corrections, &z_corrections) {
                let mut circuit = Circuit::new();
                circuit.push_slot(slot);
                stack.execute_now(circuit)?;
            }
        }
        windows += 1;

        if !has_observable_error(&mut stack, &code)? {
            if let Some(value) = logical_z_value(&mut stack, &code) {
                if value != reference {
                    logical_errors += 1;
                    reference = value;
                }
            }
        }
    }

    Ok(DistanceLerOutcome {
        windows,
        logical_errors,
        ops_above_frame: above_counts.operations(),
        ops_below_frame: below_counts.operations(),
        slots_above_frame: above_counts.time_slots(),
        slots_below_frame: below_counts.time_slots(),
        injected: stack.error_counts().expect("error model installed"),
    })
}

/// Fault-tolerant `|0⟩_L` initialization (diagnostic mode): reset data,
/// one gauge-fixing ESM round decoded with the matching decoder, then
/// confirmation rounds.
fn initialize_zero(
    stack: &mut ControlStack<ChpCore>,
    code: &RotatedSurfaceCode,
    z_decoder: &MatchingDecoder,
) -> Result<(), CoreError> {
    let mut circuit = Circuit::new();
    for q in 0..code.num_data_qubits() {
        circuit.prep(q);
    }
    stack.execute_diagnostic(circuit)?;

    stack.execute_diagnostic(code.esm_circuit())?;
    let (x_synd, z_synd) = read_syndromes(stack, code);
    debug_assert!(
        z_synd.iter().all(|s| !s),
        "Z checks deterministic on |0..0>"
    );
    // Gauge-fix the random first-round X checks with Z chains.
    let corrections = z_decoder.decode(&x_synd);
    if !corrections.is_empty() {
        let mut slot = TimeSlot::new();
        for q in corrections {
            slot.push(Operation::gate(Gate::Z, &[q]));
        }
        let mut circuit = Circuit::new();
        circuit.push_slot(slot);
        stack.execute_diagnostic(circuit)?;
    }
    for _ in 0..code.distance() - 1 {
        stack.execute_diagnostic(code.esm_circuit())?;
        let (x_synd, z_synd) = read_syndromes(stack, code);
        debug_assert!(x_synd.iter().all(|s| !s), "gauge fixed");
        debug_assert!(z_synd.iter().all(|s| !s), "error-free initialization");
    }
    Ok(())
}

/// Reads the `(x_checks, z_checks)` syndromes from the classical state.
fn read_syndromes(
    stack: &ControlStack<ChpCore>,
    code: &RotatedSurfaceCode,
) -> (Vec<bool>, Vec<bool>) {
    let read = |kind: CheckKind| -> Vec<bool> {
        code.checks_of(kind)
            .map(|ch| stack.state().bit(ch.ancilla).known().unwrap_or(false))
            .collect()
    };
    (read(CheckKind::X), read(CheckKind::Z))
}

fn has_observable_error(
    stack: &mut ControlStack<ChpCore>,
    code: &RotatedSurfaceCode,
) -> Result<bool, CoreError> {
    stack.execute_diagnostic(code.esm_circuit())?;
    let (x_synd, z_synd) = read_syndromes(stack, code);
    Ok(x_synd.iter().any(|s| *s) || z_synd.iter().any(|s| *s))
}

/// The logical Z value seen through the Pauli frame: the physical `Z_L`
/// expectation adjusted by tracked X components on its support.
fn logical_z_value(stack: &mut ControlStack<ChpCore>, code: &RotatedSurfaceCode) -> Option<bool> {
    let mut observable = PauliString::identity(stack.num_qubits());
    for q in code.logical_z_support() {
        observable.set_op(q, Pauli::Z);
    }
    let mut flip = false;
    if let Some(pf) = stack.find_layer::<PauliFrameLayer>() {
        for q in code.logical_z_support() {
            flip ^= pf.record(q).bits().0;
        }
    }
    let physical = stack
        .core_mut()
        .simulator_mut()
        .expect("qubits allocated")
        .expectation(&observable)?;
    Some(physical ^ flip)
}

/// One correction time slot from X- and Z-correction sets (merged to `Y`
/// where they overlap).
fn correction_slot(x_corrections: &[usize], z_corrections: &[usize]) -> Option<TimeSlot> {
    if x_corrections.is_empty() && z_corrections.is_empty() {
        return None;
    }
    let mut all: Vec<usize> = x_corrections.iter().chain(z_corrections).copied().collect();
    all.sort_unstable();
    all.dedup();
    let mut slot = TimeSlot::new();
    for q in all {
        let gate = match (x_corrections.contains(&q), z_corrections.contains(&q)) {
            (true, true) => Gate::Y,
            (true, false) => Gate::X,
            (false, true) => Gate::Z,
            (false, false) => unreachable!("q came from one of the sets"),
        };
        slot.push(Operation::gate(gate, &[q]));
    }
    Some(slot)
}

/// Configuration of a code-capacity LER sweep point sampled 64 shots at
/// a time by the [`FrameSampler`] and decoded by the union-find decoder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SurfaceLerConfig {
    /// Code distance (odd, ≥ 3).
    pub distance: usize,
    /// Per-data-qubit, per-shot error probability.
    pub physical_error_rate: f64,
    /// The injected error kind: `X` errors are detected by Z checks and
    /// threaten `Z_L`, and vice versa.
    pub error: CheckKind,
    /// Monte-Carlo shots (rounded up to whole 64-lane words internally;
    /// failures are only counted on the first `shots` lanes).
    pub shots: u64,
    /// RNG seed.
    pub seed: u64,
}

/// The result of a code-capacity LER sweep point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SurfaceLerOutcome {
    /// Shots counted.
    pub shots: u64,
    /// Shots whose decoded correction produced a logical fault.
    pub failures: u64,
    /// Total defects decoded across all counted shots (a nonzero-sample
    /// witness for gates: at p > 0 a sweep that saw no defects measured
    /// nothing).
    pub defects: u64,
}

impl SurfaceLerOutcome {
    /// The logical error rate `failures / shots`.
    #[must_use]
    pub fn ler(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.failures as f64 / self.shots as f64
        }
    }
}

/// Runs one code-capacity LER point: 64-lane error words, syndromes
/// sampled by propagating them as a Pauli frame through the real ESM
/// circuit ([`FrameSampler`]), union-find decoding of every lane, and a
/// packed logical-failure readout off the frame.
///
/// The outcome depends only on the error words, which every batch draws
/// first from its own RNG substream: detecting syndromes are their
/// check-support parities and failures their parity with the correction
/// on the logical support. The result is therefore the same whichever
/// engine extracts the syndromes (`tests/frame_oracle.rs` checks it
/// against a shot-sliced tableau run of the same loop).
///
/// # Errors
///
/// Returns [`CoreError::InvalidProbability`] unless
/// `physical_error_rate ∈ [0, 1]`.
///
/// # Panics
///
/// Panics unless the distance is odd and ≥ 3.
pub fn run_ler_surface(config: &SurfaceLerConfig) -> Result<SurfaceLerOutcome, CoreError> {
    let (outcome, _stopped) = run_ler_surface_cancellable(config, &|| false)?;
    Ok(outcome)
}

/// [`run_ler_surface`] with a cooperative cancellation hook, polled once
/// per 64-shot batch. Returns the partial outcome and whether the run
/// stopped early.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProbability`] unless
/// `physical_error_rate ∈ [0, 1]`.
///
/// # Panics
///
/// Panics unless the distance is odd and ≥ 3.
pub fn run_ler_surface_cancellable(
    config: &SurfaceLerConfig,
    cancelled: &dyn Fn() -> bool,
) -> Result<(SurfaceLerOutcome, bool), CoreError> {
    run_ler_surface_resumable(config, None, cancelled, &mut |_| {})
}

/// A durable position inside a [`run_ler_surface_resumable`] sweep: the
/// number of completed whole 64-shot batches and the counters accumulated
/// over exactly those batches.
///
/// Because every batch draws from its own RNG substream, a checkpoint
/// plus the sweep config fully determines the rest of the run — resuming
/// from any recorded `SurfaceProgress` reproduces the uninterrupted
/// outcome bit for bit (see `tests/resume_oracle.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SurfaceProgress {
    /// Completed whole batches.
    pub batches: u64,
    /// Shots counted over those batches.
    pub shots: u64,
    /// Logical failures among those shots.
    pub failures: u64,
    /// Defects decoded across those shots.
    pub defects: u64,
}

thread_local! {
    // One warm decoder per (distance, error kind) per worker thread: the
    // union-find scratch arrays inside survive across decode calls *and*
    // across jobs hitting the same sweep point, so the serving path pays
    // decoder construction and steady-state allocation once per worker
    // (ROADMAP: decoder throughput on the serving path). The decoder is
    // taken out of the map for the duration of a run and put back after,
    // so the cache is never borrowed across user code.
    static DECODER_CACHE: RefCell<HashMap<(usize, CheckKind), UnionFindDecoder>> =
        RefCell::new(HashMap::new());
}

/// [`run_ler_surface_cancellable`] that can start from a previously
/// recorded [`SurfaceProgress`] checkpoint and reports a checkpoint after
/// every completed batch through `on_batch`.
///
/// `resume` restarts the sweep after `resume.batches` whole batches with
/// the recorded counters; `None` runs from scratch. A checkpoint at or
/// past the final batch returns the recorded counters untouched.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProbability`] unless
/// `physical_error_rate ∈ [0, 1]`.
///
/// # Panics
///
/// Panics unless the distance is odd and ≥ 3.
pub fn run_ler_surface_resumable(
    config: &SurfaceLerConfig,
    resume: Option<&SurfaceProgress>,
    cancelled: &dyn Fn() -> bool,
    on_batch: &mut dyn FnMut(&SurfaceProgress),
) -> Result<(SurfaceLerOutcome, bool), CoreError> {
    let p = config.physical_error_rate;
    if !(0.0..=1.0).contains(&p) {
        return Err(CoreError::InvalidProbability {
            value: format!("{p}"),
            context: "surface LER physical error rate",
        });
    }
    let code = RotatedSurfaceCode::new(config.distance);
    let decoder = DECODER_CACHE.with(|cache| {
        cache
            .borrow_mut()
            .remove(&(config.distance, config.error))
            .unwrap_or_else(|| UnionFindDecoder::new(&code, config.error))
    });
    let detecting = match config.error {
        CheckKind::X => CheckKind::Z,
        CheckKind::Z => CheckKind::X,
    };
    let ancillas: Vec<usize> = code.checks_of(detecting).map(|ch| ch.ancilla).collect();
    let mut sampler = FrameSampler::new(&code, config.error);

    let batches = config.shots.div_ceil(LANES as u64);
    let start = resume.map_or(0, |r| r.batches.min(batches));
    let mut shots = resume.map_or(0, |r| r.shots);
    let mut failures = resume.map_or(0, |r| r.failures);
    let mut defects = resume.map_or(0, |r| r.defects);
    let mut stopped = false;
    // Per-batch working buffers, allocated once and reused.
    let mut err = vec![0u64; code.num_data_qubits()];
    let mut corr = vec![0u64; code.num_data_qubits()];
    let mut syndrome = vec![false; ancillas.len()];
    let mut correction = Vec::new();
    for batch in start..batches {
        if cancelled() {
            stopped = true;
            break;
        }
        let lanes = (config.shots - batch * LANES as u64).min(LANES as u64);
        let mask = if lanes == LANES as u64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        // One independent substream per batch: results for a prefix of
        // shots are unchanged when the total grows, and a resumed run
        // replays exactly the batches a scratch run would have.
        let mut rng =
            StdRng::seed_from_u64(config.seed ^ (batch + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));

        // Draw i.i.d. data errors, one lane word each, before anything
        // else touches the substream.
        err.fill(0);
        for word in &mut err {
            for lane in 0..LANES {
                if rng.gen_bool(p) {
                    *word |= 1 << lane;
                }
            }
        }
        // One ESM round per lane through the frame; the detecting
        // checks' ancilla outcome words are the packed syndromes. (The
        // opposite family reads random gauge bits, which cannot disturb
        // the commuting observable.)
        let meas = sampler.extract(&err, &mut rng);
        #[cfg(debug_assertions)]
        for (i, ch) in code.checks_of(detecting).enumerate() {
            let expect = ch.support.iter().fold(0u64, |acc, &q| acc ^ err[q]);
            debug_assert_eq!(
                meas[ch.ancilla], expect,
                "packed syndrome plane disagrees with check supports (check {i})"
            );
        }
        // Decode each lane and accumulate the correction planes.
        corr.fill(0);
        for lane in 0..LANES {
            for (s, &anc) in syndrome.iter_mut().zip(&ancillas) {
                *s = (meas[anc] >> lane) & 1 == 1;
            }
            decoder.decode_into(&syndrome, &mut correction);
            for &q in &correction {
                corr[q] |= 1 << lane;
            }
        }
        for &anc in &ancillas {
            defects += u64::from((meas[anc] & mask).count_ones());
        }
        let fail_word = sampler.failure_word(&corr);
        // Cross-check against pure classical bookkeeping: a lane fails
        // iff error ⊕ correction overlaps the logical support oddly.
        #[cfg(debug_assertions)]
        {
            let classical = match config.error {
                CheckKind::X => code.logical_z_support(),
                CheckKind::Z => code.logical_x_support(),
            }
            .iter()
            .fold(0u64, |acc, &q| acc ^ err[q] ^ corr[q]);
            debug_assert_eq!(
                fail_word, classical,
                "frame and classical failure words differ"
            );
        }
        shots += lanes;
        failures += u64::from((fail_word & mask).count_ones());
        on_batch(&SurfaceProgress {
            batches: batch + 1,
            shots,
            failures,
            defects,
        });
    }
    DECODER_CACHE.with(|cache| {
        cache
            .borrow_mut()
            .insert((config.distance, config.error), decoder);
    });
    Ok((
        SurfaceLerOutcome {
            shots,
            failures,
            defects,
        },
        stopped,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(d: usize, p: f64, with_pf: bool, seed: u64) -> DistanceLerConfig {
        DistanceLerConfig {
            distance: d,
            physical_error_rate: p,
            with_pauli_frame: with_pf,
            target_logical_errors: 3,
            max_windows: 400,
            seed,
        }
    }

    #[test]
    fn noiseless_runs_stay_clean() {
        for d in [3, 5] {
            for with_pf in [false, true] {
                let mut config = quick(d, 0.0, with_pf, 1);
                config.max_windows = 10;
                let outcome = run_distance_ler(&config).unwrap();
                assert_eq!(outcome.windows, 10);
                assert_eq!(outcome.logical_errors, 0);
            }
        }
    }

    #[test]
    fn noisy_runs_produce_errors_at_high_p() {
        let outcome = run_distance_ler(&quick(3, 0.02, false, 2)).unwrap();
        assert!(outcome.logical_errors > 0);
        assert!(outcome.ler() > 0.0);
    }

    #[test]
    fn distance_five_runs_complete() {
        let outcome = run_distance_ler(&quick(5, 0.02, true, 3)).unwrap();
        assert!(outcome.windows > 0);
        // The frame filtered the corrections.
        assert!(outcome.ops_below_frame <= outcome.ops_above_frame);
    }

    #[test]
    fn frame_savings_respect_the_cycle_bound() {
        // The experiment decodes every two rounds, so each (d-1)/2-cycle
        // window can shed at most one slot per 17-slot cycle — the SC17
        // bound applies at every distance.
        for d in [3, 5] {
            let outcome = run_distance_ler(&quick(d, 0.03, true, 4)).unwrap();
            let saving = (outcome.slots_above_frame - outcome.slots_below_frame) as f64
                / outcome.slots_above_frame as f64;
            assert!(saving > 0.0, "d={d}: the frame saved nothing at p=0.03");
            assert!(
                saving <= 1.0 / 17.0 + 1e-9,
                "d={d}: saving {saving} above the per-cycle bound"
            );
        }
    }

    fn surface(d: usize, p: f64, kind: CheckKind, shots: u64, seed: u64) -> SurfaceLerConfig {
        SurfaceLerConfig {
            distance: d,
            physical_error_rate: p,
            error: kind,
            shots,
            seed,
        }
    }

    #[test]
    fn sliced_runs_are_clean_at_p_zero() {
        for kind in [CheckKind::X, CheckKind::Z] {
            let outcome = run_ler_surface(&surface(5, 0.0, kind, 130, 7)).unwrap();
            assert_eq!(outcome.shots, 130);
            assert_eq!(outcome.failures, 0);
            assert_eq!(outcome.defects, 0);
        }
    }

    #[test]
    fn sliced_runs_fail_above_threshold() {
        // p = 0.3 is far above any surface-code threshold: failures must
        // appear, and plenty of defects must have been decoded.
        let outcome = run_ler_surface(&surface(3, 0.3, CheckKind::X, 640, 11)).unwrap();
        assert!(outcome.failures > 0, "no failures at p=0.3");
        assert!(outcome.defects > 100, "defect sampling too thin");
    }

    #[test]
    fn sliced_runs_are_seed_deterministic_and_prefix_stable() {
        let a = run_ler_surface(&surface(5, 0.08, CheckKind::X, 512, 42)).unwrap();
        let b = run_ler_surface(&surface(5, 0.08, CheckKind::X, 512, 42)).unwrap();
        assert_eq!(a, b);
        let c = run_ler_surface(&surface(5, 0.08, CheckKind::X, 512, 43)).unwrap();
        assert_ne!(a, c, "different seeds produced identical outcomes");
        // Per-batch substreams: growing the shot count must not change
        // the failures attributed to the common prefix of whole batches.
        let big = run_ler_surface(&surface(5, 0.08, CheckKind::X, 1024, 42)).unwrap();
        assert!(big.failures >= a.failures);
    }

    #[test]
    fn sliced_runs_reject_bad_probability() {
        assert!(run_ler_surface(&surface(3, 1.5, CheckKind::X, 64, 1)).is_err());
        assert!(run_ler_surface(&surface(3, -0.1, CheckKind::X, 64, 1)).is_err());
    }

    #[test]
    fn sliced_cancellation_stops_between_batches() {
        let config = surface(3, 0.05, CheckKind::X, 6400, 3);
        let (outcome, stopped) = run_ler_surface_cancellable(&config, &|| true).unwrap();
        assert!(stopped);
        assert_eq!(outcome.shots, 0);
    }

    #[test]
    fn resume_from_midpoint_matches_scratch() {
        let config = surface(3, 0.08, CheckKind::X, 520, 9);
        let scratch = run_ler_surface(&config).unwrap();
        let mut checkpoints = Vec::new();
        run_ler_surface_resumable(&config, None, &|| false, &mut |p| checkpoints.push(*p)).unwrap();
        assert_eq!(checkpoints.len(), 9, "520 shots is 9 batches");
        let mid = checkpoints[4];
        let mut replayed = 0u64;
        let (outcome, stopped) =
            run_ler_surface_resumable(&config, Some(&mid), &|| false, &mut |_| replayed += 1)
                .unwrap();
        assert!(!stopped);
        assert_eq!(outcome, scratch, "resumed run diverged from scratch");
        assert_eq!(
            replayed, 4,
            "resume re-executed already-checkpointed batches"
        );
    }

    #[test]
    fn resume_at_or_past_the_end_returns_the_checkpoint() {
        let config = surface(3, 0.08, CheckKind::X, 128, 5);
        let scratch = run_ler_surface(&config).unwrap();
        let done = SurfaceProgress {
            batches: 99,
            shots: scratch.shots,
            failures: scratch.failures,
            defects: scratch.defects,
        };
        let (outcome, stopped) =
            run_ler_surface_resumable(&config, Some(&done), &|| false, &mut |_| {
                panic!("no batch should run")
            })
            .unwrap();
        assert!(!stopped);
        assert_eq!(outcome, scratch);
    }

    #[test]
    fn sliced_ler_decreases_with_distance_below_threshold() {
        // The defining property of a working decoder: below threshold,
        // bigger codes fail less. p = 0.05 is well under the ~10%
        // code-capacity threshold.
        let small = run_ler_surface(&surface(3, 0.05, CheckKind::X, 4096, 5)).unwrap();
        let large = run_ler_surface(&surface(5, 0.05, CheckKind::X, 4096, 5)).unwrap();
        assert!(
            large.ler() < small.ler(),
            "d=5 LER {} not below d=3 LER {}",
            large.ler(),
            small.ler()
        );
    }
}
