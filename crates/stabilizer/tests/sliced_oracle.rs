//! Lane-vs-scalar differential oracle: every lane of a `ShotSlicedSim`
//! against its own scalar `StabilizerSim` twin, held in lock-step over
//! seeded random Clifford walks.
//!
//! Each walk drives one sliced engine and 64 scalar twins through an
//! identical gate stream. Lane `k` and twin `k` hold identically-seeded
//! (but independent) RNGs; because both engines draw exactly one bit per
//! random measurement — before the collapse — and nothing otherwise,
//! agreement here means a sliced batch is byte-identical to 64 scalar
//! shots. After **every** step all 64 lanes are raw-compared
//! ([`ShotSlicedSim::lane_eq`]: operator planes + per-row lane sign);
//! periodically the walks deep-check extracted Pauli strings,
//! deterministic-vs-random classification, and expectation lane words.
//!
//! The walks also inject **lane-masked Pauli errors** (different Paulis
//! in different lanes of the same word) so the divergence seams — the
//! whole point of the sliced layout — are exercised throughout, not just
//! in the dedicated seam tests at the bottom.

use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, RngCore, SeedableRng};
use qpdo_stabilizer::{ShotSlicedSim, StabilizerSim, LANES};

/// One step of the walk, applied identically to the sliced engine and
/// all 64 scalar twins.
#[derive(Clone, Copy, Debug)]
enum Step {
    H(usize),
    S(usize),
    Sdg(usize),
    X(usize),
    Y(usize),
    Z(usize),
    Cnot(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
    Measure(usize),
    Reset(usize),
    /// Per-lane Pauli divergence: lanes in `x_lanes` get an X component
    /// on qubit `q`, lanes in `z_lanes` a Z component (both = Y).
    LaneError {
        q: usize,
        x_lanes: u64,
        z_lanes: u64,
    },
}

fn random_step(rng: &mut StdRng, n: usize) -> Step {
    let q = rng.gen_range(0..n);
    let two = |rng: &mut StdRng| {
        if n < 2 {
            return None;
        }
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        Some((a, b))
    };
    match rng.gen_range(0..100u32) {
        0..=12 => Step::H(q),
        13..=22 => Step::S(q),
        23..=29 => Step::Sdg(q),
        30..=34 => Step::X(q),
        35..=38 => Step::Y(q),
        39..=42 => Step::Z(q),
        43..=59 => two(rng)
            .map(|(a, b)| Step::Cnot(a, b))
            .unwrap_or(Step::H(q)),
        60..=70 => two(rng).map(|(a, b)| Step::Cz(a, b)).unwrap_or(Step::S(q)),
        71..=79 => two(rng)
            .map(|(a, b)| Step::Swap(a, b))
            .unwrap_or(Step::X(q)),
        80..=86 => Step::Measure(q),
        87..=89 => Step::Reset(q),
        _ => Step::LaneError {
            q,
            x_lanes: rng.gen::<u64>(),
            z_lanes: rng.gen::<u64>(),
        },
    }
}

struct Fleet {
    sliced: ShotSlicedSim,
    twins: Vec<StabilizerSim>,
    /// Lane k's RNG for the sliced engine's `draw` closure.
    sliced_rngs: Vec<StdRng>,
    /// Twin k's RNG — seeded identically to `sliced_rngs[k]`.
    twin_rngs: Vec<StdRng>,
}

impl Fleet {
    fn new(n: usize, seed: u64) -> Self {
        let lane_seed = |k: usize| seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64 + 1));
        Fleet {
            sliced: ShotSlicedSim::new(n),
            twins: (0..LANES).map(|_| StabilizerSim::new(n)).collect(),
            sliced_rngs: (0..LANES)
                .map(|k| StdRng::seed_from_u64(lane_seed(k)))
                .collect(),
            twin_rngs: (0..LANES)
                .map(|k| StdRng::seed_from_u64(lane_seed(k)))
                .collect(),
        }
    }

    /// Applies `step` everywhere; for measurements, asserts the
    /// classification and every lane's outcome agree with its twin.
    fn apply(&mut self, step: Step) {
        macro_rules! all {
            ($($call:tt)*) => {{
                self.sliced.$($call)*;
                for t in &mut self.twins {
                    t.$($call)*;
                }
            }};
        }
        match step {
            Step::H(q) => all!(h(q)),
            Step::S(q) => all!(s(q)),
            Step::Sdg(q) => all!(sdg(q)),
            Step::X(q) => all!(x(q)),
            Step::Y(q) => all!(y(q)),
            Step::Z(q) => all!(z(q)),
            Step::Cnot(a, b) => all!(cnot(a, b)),
            Step::Cz(a, b) => all!(cz(a, b)),
            Step::Swap(a, b) => all!(swap(a, b)),
            Step::Measure(q) => {
                let peek_sliced = self.sliced.peek_deterministic(q);
                for (k, twin) in self.twins.iter_mut().enumerate() {
                    let peek_twin = twin.peek_deterministic(q);
                    assert_eq!(
                        peek_sliced.map(|w| w >> k & 1 != 0),
                        peek_twin,
                        "classification diverged on qubit {q} lane {k}"
                    );
                }
                let rngs = &mut self.sliced_rngs;
                let outcomes = self.sliced.measure_with(q, |lane| rngs[lane].gen::<bool>());
                for (k, twin) in self.twins.iter_mut().enumerate() {
                    let out = twin.measure(q, &mut self.twin_rngs[k]);
                    assert_eq!(
                        outcomes >> k & 1 != 0,
                        out,
                        "outcome diverged on qubit {q} lane {k}"
                    );
                }
            }
            Step::Reset(q) => {
                let rngs = &mut self.sliced_rngs;
                self.sliced.reset_with(q, |lane| rngs[lane].gen::<bool>());
                for (k, twin) in self.twins.iter_mut().enumerate() {
                    twin.reset(q, &mut self.twin_rngs[k]);
                }
            }
            Step::LaneError {
                q,
                x_lanes,
                z_lanes,
            } => {
                self.sliced.pauli_masked(q, x_lanes, z_lanes);
                for (k, twin) in self.twins.iter_mut().enumerate() {
                    if x_lanes >> k & 1 != 0 {
                        twin.x(q);
                    }
                    if z_lanes >> k & 1 != 0 {
                        twin.z(q);
                    }
                }
            }
        }
    }

    /// Raw comparison of every lane against its twin (operator planes +
    /// per-row signs) — cheap enough to run after every step.
    fn assert_lanes_raw_equal(&self, ctx: &str) {
        for (k, twin) in self.twins.iter().enumerate() {
            assert!(
                self.sliced.lane_eq(k, twin),
                "lane {k} diverged from its scalar twin {ctx}"
            );
        }
    }

    /// Deep checkpoint: extracted Pauli strings for a rotating sample of
    /// lanes, per-qubit classification, and expectation lane words over
    /// the canonical stabilizers of twin 0 (the operator planes are
    /// shared, so twin 0's canonical set is every lane's up to signs).
    fn assert_deep_equal(&mut self, salt: usize, ctx: &str) {
        for k in [0, 31, 63, salt % LANES] {
            assert_eq!(
                self.sliced.lane_stabilizers(k),
                self.twins[k].stabilizers(),
                "lane {k} stabilizer strings diverged {ctx}"
            );
            assert_eq!(
                self.sliced.lane_destabilizers(k),
                self.twins[k].destabilizers(),
                "lane {k} destabilizer strings diverged {ctx}"
            );
        }
        for q in 0..self.sliced.num_qubits() {
            let sliced = self.sliced.peek_deterministic(q);
            assert_eq!(
                sliced.is_some(),
                self.twins[0].peek_deterministic(q).is_some(),
                "peek classification diverged on qubit {q} {ctx}"
            );
            if let Some(word) = sliced {
                for (k, twin) in self.twins.iter_mut().enumerate() {
                    assert_eq!(
                        Some(word >> k & 1 != 0),
                        twin.peek_deterministic(q),
                        "peek outcome diverged on qubit {q} lane {k} {ctx}"
                    );
                }
            }
        }
        let mut canonical = self.twins[0].canonical_stabilizers();
        for gen in &mut canonical {
            gen.set_phase(qpdo_pauli::Phase::PlusOne);
            let word = self.sliced.expectation(gen);
            for (k, twin) in self.twins.iter_mut().enumerate() {
                assert_eq!(
                    word.map(|w| w >> k & 1 != 0),
                    twin.expectation(gen),
                    "expectation of {gen} diverged in lane {k} {ctx}"
                );
            }
        }
    }
}

fn walk(n: usize, steps: usize, seed: u64, deep_every: usize) {
    let mut gate_rng = StdRng::seed_from_u64(seed);
    let mut fleet = Fleet::new(n, seed ^ 0xC0FF_EE00_0000_0000);
    for step_idx in 0..steps {
        let step = random_step(&mut gate_rng, n);
        fleet.apply(step);
        let ctx = format!("at n={n} step={step_idx} ({step:?}, seed={seed:#x})");
        fleet.assert_lanes_raw_equal(&ctx);
        if (step_idx + 1) % deep_every == 0 {
            fleet.assert_deep_equal(step_idx, &ctx);
        }
    }
    fleet.assert_deep_equal(steps, &format!("at n={n} end (seed={seed:#x})"));
    // RNG-stream parity per lane: the sliced engine and each twin must
    // have consumed exactly the same number of random bits.
    for k in 0..LANES {
        assert_eq!(
            fleet.sliced_rngs[k].gen::<u64>(),
            fleet.twin_rngs[k].gen::<u64>(),
            "lane {k} consumed a different RNG stream length at n={n}"
        );
    }
}

/// Walk length: full 10k steps in release (the codegen the experiment
/// binaries ship with; verify.sh runs this file in release), trimmed in
/// debug so plain `cargo test` stays inside its budget — every step
/// still raw-compares all 64 lanes.
fn scaled(steps: usize) -> usize {
    if cfg!(debug_assertions) {
        (steps / 25).max(100)
    } else {
        steps
    }
}

/// The headline oracle: walks on every register size from 1 to 17
/// qubits (17 = the Surface-17 register), all-lane raw-checked after
/// every gate, deep-checked periodically.
#[test]
fn sliced_lanes_match_scalar_twins_1_to_17_qubits() {
    for n in 1..=17 {
        walk(n, scaled(10_000), 0x51CE_D000 ^ (n as u64), 500);
    }
}

/// Word-boundary coverage: 31, 32 and 33 qubits straddle the 64-row
/// column word of the shared operator layout (2n = 62, 64, 66).
#[test]
fn sliced_lanes_match_across_word_boundary() {
    for n in [31usize, 32, 33] {
        walk(n, scaled(4_000), 0x51CE_DB0A ^ (n as u64), 400);
    }
}

/// Multi-word coverage: at 100 qubits the 200 rows span four column
/// words, so deterministic-outcome scans carry X/Z prefix parities
/// across several words (the surface frame oracle runs the engine at
/// up to 337 qubits).
#[test]
fn sliced_lanes_match_on_multi_word_registers() {
    walk(100, scaled(3_000), 0x51CE_D4D4, 300);
}

/// A forced-coin RNG for golden KATs: `gen::<bool>()` pops the next
/// scripted outcome (the `bool` sampler reads bit 0 of `next_u64`).
struct ForcedCoin(std::collections::VecDeque<bool>);

impl RngCore for ForcedCoin {
    fn next_u64(&mut self) -> u64 {
        u64::from(self.0.pop_front().expect("forced coin exhausted"))
    }
}

/// Satellite: divergence-seam coverage. Lanes 0, 31 and 63 take
/// *different* outcomes inside the same lane word of one sliced
/// measurement, and each lane still matches a scalar twin forced to the
/// same outcome.
#[test]
fn divergence_seam_lanes_0_31_63_in_one_word() {
    let n = 5;
    // Lane 0 → |0⟩, lane 31 → |1⟩, lane 63 → |0⟩, plus background noise
    // in the other lanes of the same word.
    let pattern: u64 = (1 << 31) | 0x00F0_0F00_0F00_F0F0;
    assert_eq!(pattern & 1, 0);
    assert_eq!(pattern >> 31 & 1, 1);
    assert_eq!(pattern >> 63 & 1, 0);

    let mut sliced = ShotSlicedSim::new(n);
    for q in 0..n {
        if q == 0 {
            sliced.h(0);
        } else {
            sliced.cnot(0, q);
        }
    }
    let got = sliced.measure_with(0, |lane| pattern >> lane & 1 != 0);
    assert_eq!(got, pattern, "draw closure must dictate the outcome word");
    // The GHZ partners collapse with their lane's outcome.
    for q in 1..n {
        assert_eq!(sliced.peek_deterministic(q), Some(pattern));
    }

    for lane in 0..LANES {
        let mut twin = StabilizerSim::new(n);
        for q in 0..n {
            if q == 0 {
                twin.h(0);
            } else {
                twin.cnot(0, q);
            }
        }
        let wanted = pattern >> lane & 1 != 0;
        let mut coin = ForcedCoin([wanted].into());
        assert_eq!(twin.measure(0, &mut coin), wanted);
        assert!(
            sliced.lane_eq(lane, &twin),
            "lane {lane} diverged after seam measurement"
        );
    }
}

/// Satellite: an injected error hitting exactly **one** lane leaves the
/// other 63 lanes byte-identical to undisturbed twins.
#[test]
fn single_lane_error_injection_stays_confined() {
    let n = 4;
    let hit = 37usize;
    let mut sliced = ShotSlicedSim::new(n);
    let mut clean = StabilizerSim::new(n);
    let mut dirty = StabilizerSim::new(n);
    for (a, b) in [(0, 1), (1, 2), (2, 3)] {
        if a == 0 {
            sliced.h(0);
            clean.h(0);
            dirty.h(0);
        }
        sliced.cnot(a, b);
        clean.cnot(a, b);
        dirty.cnot(a, b);
    }
    // X error on qubit 2, lane `hit` only.
    sliced.x_masked(2, 1 << hit);
    dirty.x(2);
    for lane in 0..LANES {
        let twin = if lane == hit { &dirty } else { &clean };
        assert!(
            sliced.lane_eq(lane, twin),
            "lane {lane} did not match its {} twin",
            if lane == hit { "error" } else { "clean" }
        );
    }
    // The error shows up only in lane `hit`'s readout of a stabilizer
    // with Z support on the hit qubit — and nowhere else.
    assert_eq!(
        sliced.expectation(&"+IZZI".parse().unwrap()),
        Some(1 << hit)
    );
    assert_eq!(sliced.expectation(&"+ZZII".parse().unwrap()), Some(0));
}

/// Golden KAT: Bell-pair collapse with the alternating-lane pattern.
/// Every quantity is known analytically — no recorded constants.
#[test]
fn golden_kat_bell_alternating_lanes() {
    let alternating = 0xAAAA_AAAA_AAAA_AAAAu64;
    let mut sim = ShotSlicedSim::new(2);
    sim.h(0);
    sim.cnot(0, 1);
    let got = sim.measure_with(0, |lane| lane % 2 == 1);
    assert_eq!(got, alternating);
    // Post-collapse group: ±Z on qubit 0 (sign = outcome), ZZ always +.
    assert_eq!(sim.expectation(&"+ZI".parse().unwrap()), Some(alternating));
    assert_eq!(sim.expectation(&"+IZ".parse().unwrap()), Some(alternating));
    assert_eq!(sim.expectation(&"+ZZ".parse().unwrap()), Some(0));
    assert_eq!(sim.expectation(&"-ZZ".parse().unwrap()), Some(u64::MAX));
    assert_eq!(sim.expectation(&"+XX".parse().unwrap()), None);
    // Partner qubit now deterministic, matching per lane; measuring it
    // must not touch the lane RNGs.
    assert_eq!(sim.measure_with(1, |_| unreachable!()), alternating);
}

/// Golden KAT: sign arithmetic through the S gate. `S²` on `|+⟩` sends
/// the stabilizer X → Y → −X, identically in every lane; a masked Z
/// then flips chosen lanes back to +X.
#[test]
fn golden_kat_phase_gate_signs() {
    let mut sim = ShotSlicedSim::new(1);
    sim.h(0);
    sim.s(0);
    sim.s(0);
    assert_eq!(sim.lane_stabilizers(0)[0].to_string(), "-1·X");
    assert_eq!(sim.lane_stabilizers(63)[0].to_string(), "-1·X");
    assert_eq!(sim.expectation(&"+X".parse().unwrap()), Some(u64::MAX));
    let flip = 0x0123_4567_89AB_CDEFu64;
    sim.z_masked(0, flip);
    assert_eq!(sim.expectation(&"+X".parse().unwrap()), Some(!flip));
}
