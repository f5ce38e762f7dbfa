//! The 64-lane Pauli-frame syndrome sampler behind
//! [`run_ler_surface`](crate::experiment::run_ler_surface).
//!
//! A code-capacity shot is a noiseless ESM round run on the code state
//! with a Pauli error on the data. The error never has to touch a
//! quantum state: the paper's record maps (Tables 3.2–3.5) carry it
//! through the round as a Pauli frame, and every outcome is a fixed
//! *reference* outcome of the error-free round XORed with the frame's
//! measurement flip. [`FrameSampler`] runs that bookkeeping for 64
//! shots at once on a [`LanePauliFrame`], one lane per shot.
//!
//! **The reference is the code state's, and it is constant.** On
//! `|0…0⟩` (X errors) or `|+…+⟩` (Z errors) every detecting-family
//! ancilla reads 0, every opposite-family ancilla reads a uniformly
//! random bit, and the threatened logical observable reads +1
//! (`tests/zero_reference.rs` pins all three on the tableau at
//! d = 3…13). So the sampler stores no reference bits: a detecting
//! outcome is the frame's flip word alone, and the randomness of the
//! opposite family comes from the gauge below.
//!
//! **Gauge randomization.** A Pauli that stabilizes the state is
//! physically invisible, so the frame may absorb any product of
//! stabilizers in any lane without changing that lane's physics. The
//! sampler XORs a uniformly random `Z` word onto every qubit before the
//! round (each `Z_q` stabilizes `|0…0⟩`; Hadamards carry them to `X_q`
//! on `|+…+⟩` data), and again on every qubit it prepares or measures
//! (a qubit fresh from `|0⟩` or a Z measurement is a `Z` eigenstate).
//! Propagated through the round, these gauges make opposite-family
//! outcomes uniform and independent, as the tableau's random
//! measurements are, while they cancel in every detecting outcome and
//! in the observable, which commute with them.

use qpdo_circuit::{Circuit, Gate, OperationKind};
use qpdo_pauli::{LanePauliFrame, Pauli};
use qpdo_rng::RngCore;

use crate::{CheckKind, RotatedSurfaceCode};

/// Samples one ESM round of a [`RotatedSurfaceCode`] under injected
/// data errors of one kind, 64 shots per call, by Pauli-frame
/// propagation.
///
/// # Example
///
/// ```
/// use qpdo_rng::{rngs::StdRng, SeedableRng};
/// use qpdo_surface::{CheckKind, FrameSampler, RotatedSurfaceCode};
///
/// let code = RotatedSurfaceCode::new(3);
/// let mut sampler = FrameSampler::new(&code, CheckKind::X);
/// let mut errors = vec![0u64; code.num_data_qubits()];
/// errors[4] = 0b10; // an X error on the centre qubit, lane 1 only
/// let meas = sampler.extract(&errors, &mut StdRng::seed_from_u64(1));
/// for ch in code.checks_of(CheckKind::Z) {
///     let lit = ch.support.contains(&4);
///     assert_eq!(meas[ch.ancilla], if lit { 0b10 } else { 0 });
/// }
/// // Uncorrected, the error crosses Z_L in lane 1.
/// assert_eq!(sampler.failure_word(&vec![0; code.num_data_qubits()]), 0b10);
/// ```
#[derive(Clone, Debug)]
pub struct FrameSampler {
    error: CheckKind,
    num_data: usize,
    esm: Circuit,
    /// Support of the logical observable the error kind threatens.
    logical: Vec<usize>,
    frame: LanePauliFrame,
    /// The last round's outcome word per qubit (0 for data qubits).
    meas: Vec<u64>,
}

impl FrameSampler {
    /// A sampler for `error`-kind data errors on `code`: X errors are
    /// watched on `|0…0⟩` against `Z_L`, Z errors on `|+…+⟩` against
    /// `X_L`.
    #[must_use]
    pub fn new(code: &RotatedSurfaceCode, error: CheckKind) -> Self {
        let logical = match error {
            CheckKind::X => code.logical_z_support(),
            CheckKind::Z => code.logical_x_support(),
        };
        FrameSampler {
            error,
            num_data: code.num_data_qubits(),
            esm: code.esm_circuit(),
            logical,
            frame: LanePauliFrame::new(code.num_qubits()),
            meas: vec![0; code.num_qubits()],
        }
    }

    /// Runs one ESM round in all 64 lanes with `errors[q]` (bit `k` =
    /// lane `k`) injected on data qubit `q`, and returns the outcome
    /// word of every qubit, indexed by qubit: bit `k` of
    /// `meas[ch.ancilla]` is check `ch`'s outcome in lane `k`. Gauge
    /// words are drawn from `rng` after the caller's own draws.
    ///
    /// # Panics
    ///
    /// Panics unless `errors` has one word per data qubit.
    pub fn extract<R: RngCore + ?Sized>(&mut self, errors: &[u64], rng: &mut R) -> &[u64] {
        assert_eq!(errors.len(), self.num_data, "one error word per data qubit");
        let frame = &mut self.frame;
        frame.reset_all();
        for q in 0..frame.len() {
            frame.apply_pauli_masked(q, Pauli::Z, rng.next_u64());
        }
        for (q, &word) in errors.iter().enumerate() {
            match self.error {
                CheckKind::X => frame.apply_pauli_masked(q, Pauli::X, word),
                CheckKind::Z => {
                    frame.apply_h(q);
                    frame.apply_pauli_masked(q, Pauli::Z, word);
                }
            }
        }
        self.meas.fill(0);
        for op in self.esm.operations() {
            let q = op.qubits();
            match op.kind() {
                OperationKind::Prep => {
                    frame.reset(q[0]);
                    frame.apply_pauli_masked(q[0], Pauli::Z, rng.next_u64());
                }
                OperationKind::Measure => {
                    self.meas[q[0]] = frame.measurement_flip_word(q[0]);
                    frame.apply_pauli_masked(q[0], Pauli::Z, rng.next_u64());
                }
                OperationKind::Gate(Gate::H) => frame.apply_h(q[0]),
                OperationKind::Gate(Gate::Cnot) => frame.apply_cnot(q[0], q[1]),
                // Other gates would move the reference, which is pinned
                // only for the ESM round's H/CNOT schedule.
                OperationKind::Gate(gate) => {
                    unreachable!("ESM rounds use only H and CNOT, not {gate:?}")
                }
            }
        }
        &self.meas
    }

    /// The per-lane logical failure word of the last
    /// [`extract`](Self::extract)ed round after `corrections[q]` (one
    /// word per data qubit, same kind as the error) is applied: bit `k`
    /// set iff lane `k`'s error ⊕ correction flips the threatened
    /// logical observable (whose reference value is +1).
    ///
    /// # Panics
    ///
    /// Panics unless `corrections` has one word per data qubit.
    #[must_use]
    pub fn failure_word(&self, corrections: &[u64]) -> u64 {
        assert_eq!(
            corrections.len(),
            self.num_data,
            "one correction word per data qubit"
        );
        self.logical.iter().fold(0, |acc, &q| {
            let (x, z) = self.frame.record_words(q);
            let flips = match self.error {
                CheckKind::X => x,
                CheckKind::Z => z,
            };
            acc ^ flips ^ corrections[q]
        })
    }
}
