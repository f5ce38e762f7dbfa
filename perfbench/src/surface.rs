//! `surface_d13` and `surface_d3`: the `ler_surface` code-capacity sweep
//! driver, and its traced twin.
//!
//! The end-to-end run drives `run_ler_surface_resumable` — the driver
//! behind `run_ler_surface` and the daemon's `ler_surface` jobs — one
//! 64-shot batch at a time until the deadline, timing every batch
//! through the driver's progress callback.
//!
//! The traced run splits a shot into the driver's stages. The driver is
//! one public call, so the split comes from a twin: the same batch loop
//! rebuilt from the public calls it makes (`StdRng` substream per batch,
//! `ShotSlicedSim::{new, x_masked, reset_with, measure_with, expectation}`
//! over `RotatedSurfaceCode::esm_circuit()`, `UnionFindDecoder::decode_into`)
//! with a span around each stage. The twin replays exactly the batches
//! the driver ran in the same process and must reproduce its
//! `(shots, failures, defects)`; a mismatch marks the split stale
//! (`trace.twin_match` = 0) without touching the end-to-end numbers.

use std::time::{Duration, Instant};

use qpdo_circuit::{Circuit, OperationKind};
use qpdo_pauli::PauliString;
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_stabilizer::{ShotSlicedSim, LANES};
use qpdo_surface::experiment::{
    run_ler_surface, run_ler_surface_resumable, SurfaceLerConfig, SurfaceLerOutcome,
};
use qpdo_surface::{CheckKind, RotatedSurfaceCode, UnionFindDecoder};

use crate::clifford;
use crate::reference;
use crate::report::{peak_rss_mb, setup_s, Report};
use crate::timing::ChunkRates;

/// One sweep point of the code-capacity workload.
pub struct Point {
    pub distance: usize,
    pub p: f64,
}

/// ESM extraction dominates: about 90% of a shot, decoding about 3%.
pub const D13: Point = Point {
    distance: 13,
    p: 0.06,
};

/// Decoding dominates near the union-find threshold.
pub const D3: Point = Point {
    distance: 3,
    p: 0.08,
};

/// Least set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 51;

/// A shot count the deadline always cuts short.
const UNBOUNDED_SHOTS: u64 = 1 << 50;

fn config(point: &Point, seed: u64, shots: u64) -> SurfaceLerConfig {
    SurfaceLerConfig {
        distance: point.distance,
        physical_error_rate: point.p,
        error: CheckKind::X,
        shots,
        seed,
    }
}

pub fn run(point: &Point, seed: u64, seconds: f64, trace: bool) -> Report {
    if trace {
        traced(point, seed, seconds)
    } else {
        end_to_end(point, seed, seconds)
    }
}

/// One run of the driver's per-call set-up — code, decoder and ESM
/// circuit construction with a cold decoder cache — in seconds. A
/// zero-shot call does exactly that work; it runs on a fresh thread
/// because the decoder cache is per thread.
fn setup_rep(point: &Point, seed: u64) -> f64 {
    let cfg = config(point, seed, 0);
    std::thread::spawn(move || {
        let t0 = Instant::now();
        run_ler_surface(&cfg).expect("the workload's error rate is a probability");
        t0.elapsed().as_secs_f64()
    })
    .join()
    .expect("set-up thread does not panic")
}

/// Runs the driver until `budget` elapses, returning its outcome and
/// the wall time from the call to the last completed batch.
fn drive(
    point: &Point,
    seed: u64,
    budget: Duration,
    on_batch: &mut dyn FnMut(Instant),
) -> (SurfaceLerOutcome, Duration) {
    let start = Instant::now();
    let mut last = start;
    let (outcome, _) = run_ler_surface_resumable(
        &config(point, seed, UNBOUNDED_SHOTS),
        None,
        &|| start.elapsed() >= budget,
        &mut |_| {
            last = Instant::now();
            on_batch(last);
        },
    )
    .expect("the workload's error rate is a probability");
    (outcome, last - start)
}

fn end_to_end(point: &Point, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    // Shots are counted from the first completed batch, so the driver's
    // per-call set-up stays out. One set-up repetition runs after every
    // chunk, left out of the rates, so set-up times sample the host over
    // the whole run.
    let mut rates = ChunkRates::new();
    let mut setups = Vec::new();
    let mut aside = Duration::ZERO;
    let (outcome, wall) = drive(point, seed, Duration::from_secs_f64(seconds), &mut |now| {
        let chunks = rates.chunks();
        rates.items(LANES as u64, now);
        if rates.chunks() > chunks {
            setups.push(setup_rep(point, seed));
            let spent = now.elapsed();
            rates.exclude(spent);
            aside += spent;
        }
    });
    while setups.len() < SETUP_REPS {
        setups.push(setup_rep(point, seed));
    }
    let sweep_s = wall.saturating_sub(aside).as_secs_f64();
    println!(
        "{} batches, {} shots in {sweep_s:.3} s ({:.1} shots/s over the whole run); \
         {} chunks, {} set-up repetitions",
        outcome.shots / LANES as u64,
        outcome.shots,
        outcome.shots as f64 / sweep_s.max(1e-12),
        rates.chunks(),
        setups.len()
    );
    println!(
        "chunk rates: p25 {:.1} (reported), p50 {:.1}, p75 {:.1} shots/s",
        rates.quantile(0.25),
        rates.quantile(0.5),
        rates.quantile(0.75)
    );
    let shots_per_s = rates.rate();
    report.metric("shots_per_s", shots_per_s);
    // Every workload prints every end-to-end metric of BENCHMARK.json: one
    // code-capacity ESM window per shot, and operations (64-shot
    // batches) stand in for jobs.
    report.metric("windows_per_s", shots_per_s);
    report.metric("serve_jobs_per_s", shots_per_s / LANES as f64);
    report.metric("peak_rss_mb", peak_rss_mb("self"));
    report.metric("setup_s", setup_s(&setups));
    account(&mut report, point, &outcome);
    report
}

/// Operations are the 64-shot batches; a failed LER check fails all of
/// them, since the run's statistical output as a whole is wrong.
fn account(report: &mut Report, point: &Point, outcome: &SurfaceLerOutcome) {
    report.attempted = (outcome.shots / LANES as u64).max(1);
    let checked =
        reference::check_surface(point.distance, point.p, outcome.shots, outcome.failures);
    let ok = checked.is_ok() && outcome.defects > 0 && outcome.shots > 0;
    let line = checked.unwrap_or_else(|e| e);
    report.check(
        ok,
        &format!(
            "d={} p={}: {line}, {} defects",
            point.distance, point.p, outcome.defects
        ),
    );
    if !ok {
        report.failed = report.attempted;
    }
}

/// Stage self-times and counts accumulated by the traced twin.
#[derive(Default)]
struct Phases {
    sample: Duration,
    init: Duration,
    extract: Duration,
    decode: Duration,
    readout: Duration,
    random_meas: u64,
    decode_calls: u64,
    nonempty_calls: u64,
    timed_calls: u64,
    timed_call_time: Duration,
}

/// The driver's batch loop, rebuilt from public calls with a span
/// around each stage (X errors, Z checks, logical Z — the workload's
/// configuration).
struct Twin {
    p: f64,
    n: usize,
    decoder: UnionFindDecoder,
    ancillas: Vec<usize>,
    observable: PauliString,
    esm: Circuit,
    err: Vec<u64>,
    meas: Vec<u64>,
    corr: Vec<u64>,
    syndrome: Vec<bool>,
    correction: Vec<usize>,
}

/// Every this-many lanes one decode call is timed on its own, which
/// gives the per-call cost without a timer around each call.
const CALL_SAMPLE_STRIDE: usize = 16;

impl Twin {
    fn new(point: &Point) -> Self {
        let code = RotatedSurfaceCode::new(point.distance);
        let ancillas: Vec<usize> = code.checks_of(CheckKind::Z).map(|ch| ch.ancilla).collect();
        Twin {
            p: point.p,
            n: code.num_qubits(),
            decoder: UnionFindDecoder::new(&code, CheckKind::X),
            syndrome: vec![false; ancillas.len()],
            ancillas,
            observable: code.logical_z_string(),
            esm: code.esm_circuit(),
            err: vec![0; code.num_data_qubits()],
            meas: vec![0; code.num_qubits()],
            corr: vec![0; code.num_data_qubits()],
            correction: Vec::new(),
        }
    }

    /// One full 64-shot batch; returns `(failures, defects)`.
    fn batch(&mut self, seed: u64, batch: u64, ph: &mut Phases) -> (u64, u64) {
        let t0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed ^ (batch + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for word in &mut self.err {
            *word = 0;
            for lane in 0..LANES {
                if rng.gen_bool(self.p) {
                    *word |= 1 << lane;
                }
            }
        }
        let t1 = Instant::now();
        let mut sim = ShotSlicedSim::new(self.n);
        for (q, &word) in self.err.iter().enumerate() {
            sim.x_masked(q, word);
        }
        let t2 = Instant::now();
        self.meas.fill(0);
        let mut random = 0u64;
        for slot in self.esm.slots() {
            for op in slot {
                let q = op.qubits();
                let mut draw = |lane: usize| {
                    random += u64::from(lane == 0);
                    rng.gen::<bool>()
                };
                match op.kind() {
                    OperationKind::Prep => sim.reset_with(q[0], &mut draw),
                    OperationKind::Measure => self.meas[q[0]] = sim.measure_with(q[0], &mut draw),
                    OperationKind::Gate(gate) => clifford::apply(&mut sim, gate, q),
                }
            }
        }
        ph.random_meas += random;
        let t3 = Instant::now();
        self.corr.fill(0);
        let timed_lane = batch as usize % CALL_SAMPLE_STRIDE;
        for lane in 0..LANES {
            let mut any = false;
            for (s, &anc) in self.syndrome.iter_mut().zip(&self.ancillas) {
                *s = (self.meas[anc] >> lane) & 1 == 1;
                any |= *s;
            }
            if lane % CALL_SAMPLE_STRIDE == timed_lane {
                let c0 = Instant::now();
                self.decoder
                    .decode_into(&self.syndrome, &mut self.correction);
                ph.timed_call_time += c0.elapsed();
                ph.timed_calls += 1;
            } else {
                self.decoder
                    .decode_into(&self.syndrome, &mut self.correction);
            }
            ph.nonempty_calls += u64::from(any);
            for &q in &self.correction {
                self.corr[q] |= 1 << lane;
            }
        }
        ph.decode_calls += LANES as u64;
        let t4 = Instant::now();
        for (q, &word) in self.corr.iter().enumerate() {
            if word != 0 {
                sim.x_masked(q, word);
            }
        }
        let fail_word = sim
            .expectation(&self.observable)
            .expect("logical observable stays deterministic through ESM + correction");
        let defects: u64 = self
            .ancillas
            .iter()
            .map(|&anc| u64::from(self.meas[anc].count_ones()))
            .sum();
        let t5 = Instant::now();
        ph.sample += t1 - t0;
        ph.init += t2 - t1;
        ph.extract += t3 - t2;
        ph.decode += t4 - t3;
        ph.readout += t5 - t4;
        (u64::from(fail_word.count_ones()), defects)
    }
}

fn traced(point: &Point, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    // Untraced half: the driver itself.
    let (driven, driver_wall) = drive(
        point,
        seed,
        Duration::from_secs_f64(seconds / 2.0),
        &mut |_| {},
    );
    let batches = driven.shots / LANES as u64;

    // Traced half: the twin replays the same batches.
    let mut twin = Twin::new(point);
    let mut ph = Phases::default();
    let (mut failures, mut defects) = (0u64, 0u64);
    let start = Instant::now();
    for batch in 0..batches {
        let (f, d) = twin.batch(seed, batch, &mut ph);
        failures += f;
        defects += d;
    }
    let twin_wall = start.elapsed();
    let replayed = SurfaceLerOutcome {
        shots: batches * LANES as u64,
        failures,
        defects,
    };
    let twin_match = replayed == driven;
    println!("driver {driven:?} in {:.3} s", driver_wall.as_secs_f64());
    println!("twin   {replayed:?} in {:.3} s", twin_wall.as_secs_f64());

    let shots = replayed.shots.max(1) as f64;
    let per_shot = |d: Duration| d.as_nanos() as f64 / shots;
    let stages = [
        ("sample", ph.sample),
        ("init", ph.init),
        ("extract", ph.extract),
        ("decode", ph.decode),
        ("readout", ph.readout),
    ];
    let wall_s = twin_wall.as_secs_f64().max(1e-12);
    for (name, d) in stages {
        println!(
            "stage {name:<8} {:5.1}% of the traced wall",
            100.0 * d.as_secs_f64() / wall_s
        );
    }
    let coverage = stages.iter().map(|(_, d)| d.as_secs_f64()).sum::<f64>() / wall_s;
    let overhead = twin_wall.as_secs_f64() / driver_wall.as_secs_f64().max(1e-12) - 1.0;
    report.metric("rng.sample_ns_per_shot", per_shot(ph.sample));
    report.metric("stabilizer.init_ns_per_shot", per_shot(ph.init));
    report.metric("stabilizer.extract_ns_per_shot", per_shot(ph.extract));
    report.metric(
        "stabilizer.random_meas_per_batch",
        ph.random_meas as f64 / batches.max(1) as f64,
    );
    report.metric("surface.uf.decode_ns_per_shot", per_shot(ph.decode));
    report.metric(
        "surface.uf.decode_ns_per_call",
        ph.timed_call_time.as_nanos() as f64 / ph.timed_calls.max(1) as f64,
    );
    report.metric(
        "surface.uf.nonempty_frac",
        ph.nonempty_calls as f64 / ph.decode_calls.max(1) as f64,
    );
    report.metric("surface.defects_per_shot", defects as f64 / shots);
    report.metric("stabilizer.readout_ns_per_shot", per_shot(ph.readout));
    report.metric("trace.coverage", coverage);
    report.metric("trace.overhead_frac", overhead);
    report.metric("trace.twin_match", f64::from(u8::from(twin_match)));
    if !twin_match {
        println!("twin diverged from the driver: the per-layer split is stale");
    }
    report.check(
        coverage >= 0.9,
        &format!("trace.coverage {coverage:.4} >= 0.9"),
    );
    account(&mut report, point, &driven);
    report
}
