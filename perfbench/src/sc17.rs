//! `sc17_frame`: the paper's SC17 logical-error-rate experiment through
//! `surface17::run_ler_sliced` — 64 trajectories per pass on one shared
//! 17-qubit `ShotSlicedSim`, with the lane-masked Pauli frame, per-lane
//! `DepolarizingModel` draws and the LUT decoder.
//!
//! The logical-error target is never reached, so every lane runs exactly
//! the window cap and every pass does the same amount of work.
//!
//! `run_ler_sliced` is one public call, so its per-layer split is replay
//! attribution: exact counts come from the `LerOutcome`s and from
//! replaying the public ESM schedule, per-call costs from timing the
//! layers' public calls at the workload's parameters.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::{Duration, Instant};

use qpdo_bench::supervisor::sliced_lane_seeds;
use qpdo_circuit::{Circuit, OperationKind};
use qpdo_core::DepolarizingModel;
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_stabilizer::{ShotSlicedSim, LANES};
use qpdo_surface17::experiment::{LerConfig, LerOutcome, LogicalErrorKind};
use qpdo_surface17::{esm_circuit, run_ler_sliced, DanceMode, LutDecoder, Rotation, StarLayout};

use crate::clifford;
use crate::reference;
use crate::report::{peak_rss_mb, setup_s, Report};
use crate::timing::ChunkRates;

/// The physical error rate: the paper's curve at 1e-3.
pub const P: f64 = 1e-3;
/// Windows each lane runs per pass.
pub const MAX_WINDOWS: u64 = 200;
/// Least set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 51;
/// Qubits of the SC17 register: 9 data and 8 ancillas.
const QUBITS: usize = 17;

fn config(max_windows: u64) -> LerConfig {
    LerConfig {
        physical_error_rate: P,
        kind: LogicalErrorKind::XL,
        with_pauli_frame: true,
        // Never reached: every lane runs exactly `max_windows` windows.
        target_logical_errors: u64::MAX,
        max_windows,
        seed: 0, // unused by the sliced driver; lanes seed from `lane_seeds`
    }
}

fn lane_seeds(seed: u64, pass: u64) -> [u64; LANES] {
    sliced_lane_seeds(seed, "sc17_frame", pass)
}

/// One pass: 64 trajectories of `MAX_WINDOWS` windows. `on_window` runs
/// at the start of every window round (the driver's cancellation poll).
fn pass(seed: u64, index: u64, on_window: &dyn Fn()) -> [LerOutcome; LANES] {
    let (outcomes, _) = run_ler_sliced(&config(MAX_WINDOWS), &lane_seeds(seed, index), &|| {
        on_window();
        false
    })
    .expect("the workload's error rate is a probability");
    outcomes
}

/// Summed counters over every lane of every pass.
#[derive(Default, Debug, PartialEq)]
struct Totals {
    windows: u64,
    errors: u64,
    ops_above: u64,
    ops_below: u64,
    slots_above: u64,
    slots_below: u64,
    short_lanes: u64,
}

impl Totals {
    fn add(&mut self, outcomes: &[LerOutcome; LANES]) {
        for o in outcomes {
            self.windows += o.windows;
            self.errors += o.logical_errors;
            self.ops_above += o.ops_above_frame;
            self.ops_below += o.ops_below_frame;
            self.slots_above += o.slots_above_frame;
            self.slots_below += o.slots_below_frame;
            self.short_lanes += u64::from(o.windows != MAX_WINDOWS);
        }
    }

    fn saved(above: u64, below: u64) -> f64 {
        (above.saturating_sub(below)) as f64 / above.max(1) as f64
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    if trace {
        traced(seed, seconds)
    } else {
        end_to_end(seed, seconds)
    }
}

/// One pass's set-up in seconds: stack, trackers and schedule
/// construction plus the three initialization ESM rounds — a pass with
/// a zero window cap does exactly that work.
fn setup_rep(seed: u64, rep: u64) -> f64 {
    let t0 = Instant::now();
    run_ler_sliced(&config(0), &lane_seeds(seed, u64::MAX - rep), &|| false)
        .expect("the workload's error rate is a probability");
    t0.elapsed().as_secs_f64()
}

fn end_to_end(seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    // Every window round advances all 64 lanes by one window; a round
    // ends at the driver's next once-per-round cancellation poll or at
    // the end of the pass. The first poll starts the clock, so the
    // first pass's set-up stays out and every later one is counted.
    let rates = RefCell::new(ChunkRates::new());
    let rounds = Cell::new(0u64);
    let on_window = || {
        let done = if rounds.replace(rounds.get() + 1) > 0 {
            LANES as u64
        } else {
            0
        };
        rates.borrow_mut().items(done, Instant::now());
    };
    let mut totals = Totals::default();
    let mut passes = 0u64;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    // One set-up repetition after every pass that closed a chunk, left
    // out of the rates, so set-up times sample the host over the run.
    let mut setups = Vec::new();
    let mut aside = Duration::ZERO;
    let mut chunks = 0;
    while passes == 0 || start.elapsed() < budget {
        rounds.set(0);
        totals.add(&pass(seed, passes, &on_window));
        // The pass's last round, and any the polls did not mark.
        let marked = rounds.get().saturating_sub(1);
        let rest = MAX_WINDOWS.saturating_sub(marked) * LANES as u64;
        let now = Instant::now();
        let mut open = rates.borrow_mut();
        open.items(rest, now);
        if open.chunks() > chunks {
            chunks = open.chunks();
            setups.push(setup_rep(seed, setups.len() as u64));
            let spent = now.elapsed();
            open.exclude(spent);
            aside += spent;
        }
        passes += 1;
    }
    while setups.len() < SETUP_REPS {
        setups.push(setup_rep(seed, setups.len() as u64));
    }
    let wall = start.elapsed().saturating_sub(aside).as_secs_f64();
    let rates = rates.into_inner();
    println!(
        "{passes} passes, {} lane-windows in {wall:.3} s ({:.1} windows/s over the whole run); \
         {} chunks, {} set-up repetitions",
        totals.windows,
        totals.windows as f64 / wall,
        rates.chunks(),
        setups.len()
    );
    println!(
        "chunk rates: p25 {:.1} (reported), p50 {:.1}, p75 {:.1} windows/s",
        rates.quantile(0.25),
        rates.quantile(0.5),
        rates.quantile(0.75)
    );
    let windows_per_s = rates.rate();
    report.metric("windows_per_s", windows_per_s);
    // Every workload prints every end-to-end metric of BENCHMARK.json: a
    // shot is one lane's trajectory of `MAX_WINDOWS` windows, and
    // operations (64-lane passes) stand in for jobs.
    report.metric("shots_per_s", windows_per_s / MAX_WINDOWS as f64);
    report.metric(
        "serve_jobs_per_s",
        windows_per_s / (MAX_WINDOWS * LANES as u64) as f64,
    );
    report.metric("peak_rss_mb", peak_rss_mb("self"));
    report.metric("setup_s", setup_s(&setups));
    report.attempted = passes;
    account(&mut report, &totals);
    report
}

/// Operations are the passes; a failed check fails all of them.
fn account(report: &mut Report, totals: &Totals) {
    let ler = reference::check_sc17(P, totals.windows, totals.errors);
    let ler_ok = ler.is_ok();
    report.check(ler_ok, &ler.unwrap_or_else(|e| e));
    let slots_saved = Totals::saved(totals.slots_above, totals.slots_below);
    let bounds_ok = slots_saved <= 1.0 / 17.0 && totals.ops_below <= totals.ops_above;
    report.check(
        bounds_ok,
        &format!("slots_saved_frac {slots_saved:.6} <= 1/17 and ops below <= ops above the frame"),
    );
    let cap_ok = totals.short_lanes == 0;
    report.check(
        cap_ok,
        &format!("every lane ran exactly {MAX_WINDOWS} windows"),
    );
    if !(ler_ok && bounds_ok && cap_ok) {
        report.failed = report.attempted;
    }
}

/// Per-lane error-model draws of one counted ESM round: each operation
/// draws once (a measurement flip before a measurement, a gate or prep
/// error after anything else) and every idle qubit of a slot once.
fn draws_per_round(esm: &Circuit) -> u64 {
    esm.slots()
        .iter()
        .map(|slot| {
            let used = slot.iter().map(|op| op.qubits().len()).sum::<usize>();
            (slot.len() + QUBITS - used) as u64
        })
        .sum()
}

/// Times `DepolarizingModel` on the exact draw sequence of a counted
/// ESM round, lane-major like the sliced stack (64 models, 64 streams),
/// returning ns per draw.
fn time_draws(esm: &Circuit, rounds: u64) -> f64 {
    let mut models = vec![DepolarizingModel::new(P); LANES];
    let mut rngs: Vec<StdRng> = (0..LANES as u64).map(StdRng::seed_from_u64).collect();
    let mut lanes = |draw: &mut dyn FnMut(&mut DepolarizingModel, &mut StdRng)| {
        for (model, rng) in models.iter_mut().zip(&mut rngs) {
            draw(model, rng);
        }
    };
    let t0 = Instant::now();
    for _ in 0..rounds {
        for slot in esm.slots() {
            for op in slot {
                match (op.kind(), op.qubits().len()) {
                    (OperationKind::Measure, _) => lanes(&mut |m, r| {
                        black_box(m.sample_measurement_flip(r));
                    }),
                    (_, 2) => lanes(&mut |m, r| {
                        black_box(m.sample_two(r));
                    }),
                    _ => lanes(&mut |m, r| {
                        black_box(m.sample_single(r));
                    }),
                }
            }
            for q in 0..QUBITS {
                if !slot.uses_qubit(q) {
                    lanes(&mut |m, r| {
                        black_box(m.sample_idle(r));
                    });
                }
            }
        }
    }
    let draws = rounds * draws_per_round(esm) * LANES as u64;
    t0.elapsed().as_nanos() as f64 / draws.max(1) as f64
}

/// Times one ESM round on a 17-qubit `ShotSlicedSim` with 64 per-lane
/// coin streams, returning ns per round.
fn time_esm_rounds(esm: &Circuit, rounds: u64) -> f64 {
    let mut sim = ShotSlicedSim::new(QUBITS);
    let mut rngs: Vec<StdRng> = (0..LANES as u64).map(StdRng::seed_from_u64).collect();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for slot in esm.slots() {
            for op in slot {
                let q = op.qubits();
                match op.kind() {
                    OperationKind::Prep => sim.reset_with(q[0], |lane| rngs[lane].gen::<bool>()),
                    OperationKind::Measure => {
                        black_box(sim.measure_with(q[0], |lane| rngs[lane].gen::<bool>()));
                    }
                    OperationKind::Gate(gate) => clifford::apply(&mut sim, gate, q),
                }
            }
        }
    }
    t0.elapsed().as_nanos() as f64 / rounds.max(1) as f64
}

/// Times `LutDecoder::decode` over every 4-bit pattern, ns per call.
fn time_lut(calls: u64) -> f64 {
    let decoder = LutDecoder::for_checks(&StarLayout::x_check_supports(Rotation::Normal));
    let t0 = Instant::now();
    for i in 0..calls {
        black_box(decoder.decode(black_box((i & 15) as u8)));
    }
    t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

fn traced(seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    // Untraced passes, then the same passes with a span per window round.
    let budget = Duration::from_secs_f64(seconds * 0.4);
    let mut untraced = Totals::default();
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed() < budget {
        untraced.add(&pass(seed, passes, &|| {}));
        passes += 1;
    }
    let untraced_wall = start.elapsed();
    let spans: RefCell<Vec<Instant>> =
        RefCell::new(Vec::with_capacity((passes * MAX_WINDOWS) as usize));
    let mut traced = Totals::default();
    let start = Instant::now();
    for index in 0..passes {
        traced.add(&pass(seed, index, &|| {
            spans.borrow_mut().push(Instant::now())
        }));
    }
    let traced_wall = start.elapsed();
    let spans = spans.into_inner();
    println!(
        "{passes} passes: untraced {:.3} s, traced {:.3} s, {} window spans",
        untraced_wall.as_secs_f64(),
        traced_wall.as_secs_f64(),
        spans.len()
    );

    // Replay attribution. With the frame on, every correction is
    // absorbed, so below the frame each window is exactly two counted
    // ESM rounds; the driver's counters must agree with that replay.
    let esm = esm_circuit(&StarLayout::standard(0), Rotation::Normal, DanceMode::All);
    let windows = untraced.windows.max(1);
    let replay_ok = untraced == traced
        && untraced.ops_below == windows * 2 * esm.operation_count() as u64
        && untraced.slots_below == windows * 2 * esm.slot_count() as u64;
    let draws_per_window = 2 * draws_per_round(&esm);
    let ns_per_draw = time_draws(&esm, 500);
    let esm_round_ns = time_esm_rounds(&esm, 20_000);
    let lut_ns = time_lut(10_000_000);

    // Estimated pass time from the per-call costs: three shared ESM
    // rounds per window plus three at initialization, every lane's draws,
    // and two LUT decodes per lane per window (one per check family) plus
    // two at initialization.
    let per_pass = untraced_wall.as_secs_f64() * 1e9 / passes as f64;
    let estimate = (3 * MAX_WINDOWS + 3) as f64 * esm_round_ns
        + (LANES as u64 * MAX_WINDOWS * draws_per_window) as f64 * ns_per_draw
        + (2 * LANES as u64 * (MAX_WINDOWS + 1)) as f64 * lut_ns;

    report.metric(
        "surface17.ops_saved_frac",
        Totals::saved(untraced.ops_above, untraced.ops_below),
    );
    report.metric(
        "surface17.slots_saved_frac",
        Totals::saved(untraced.slots_above, untraced.slots_below),
    );
    report.metric("core.error_model.draws_per_window", draws_per_window as f64);
    report.metric("core.error_model.ns_per_draw", ns_per_draw);
    report.metric("stabilizer.sc17_esm_round_ns", esm_round_ns);
    report.metric("surface17.lut.decode_ns", lut_ns);
    report.metric("trace.coverage", estimate / per_pass);
    report.metric(
        "trace.overhead_frac",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
    );
    report.metric("trace.twin_match", f64::from(u8::from(replay_ok)));
    if !replay_ok {
        println!("replay disagrees with the driver's counters: the per-layer split is stale");
    }
    report.attempted = passes;
    account(&mut report, &untraced);
    report
}
