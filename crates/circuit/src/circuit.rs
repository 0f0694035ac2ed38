//! The circuit container.

use crate::fingerprint::{self, Fingerprint};
use crate::gate::{Gate, GateKind, Qubit};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A quantum circuit: an ordered list of gates over `num_qubits` qubits.
///
/// Gate order is program order; concurrency is derived from the
/// dependency DAG (see [`crate::dag`]), not stored here. All mutating
/// operations validate qubit indices against the declared width.
///
/// # Sharing
///
/// A `Circuit` is a cheap handle: its name plus a reference-counted
/// body that holds the width and the gates. `clone()` copies the
/// handle, not the gates, so every submission of one circuit shares a
/// single gate list. The values derived from the body,
/// [`Circuit::fingerprint`], [`Circuit::depth`] and
/// [`Circuit::two_qubit_gate_count`], are computed together on the
/// first read of any of them and memoized in the body, so each clone
/// reads them for free. Every mutating method copies the body first if
/// another handle shares it (copy-on-write) and clears the memo, so no
/// handle ever observes another's edits. Equality and `Debug` look at
/// the name, width and gates only, as for a plain struct.
///
/// # Example
///
/// ```
/// use cloudqc_circuit::Circuit;
///
/// let mut c = Circuit::new(3).with_name("bell+1");
/// c.h(0);
/// c.cx(0, 1);
/// c.measure_all();
/// assert_eq!(c.gate_count(), 5);
/// assert_eq!(c.two_qubit_gate_count(), 1);
/// assert_eq!(c.depth(), 3); // h | cx | measure layer
///
/// let shared = c.clone(); // no gate is copied
/// assert_eq!(shared.gates().as_ptr(), c.gates().as_ptr());
/// c.h(2); // copies the gates, then appends
/// assert_eq!((shared.gate_count(), c.gate_count()), (5, 6));
/// ```
#[derive(Clone, Default)]
pub struct Circuit {
    name: Arc<str>,
    body: Arc<Body>,
}

/// Everything about a [`Circuit`] but its name: the part clones share.
#[derive(Clone, Default)]
struct Body {
    num_qubits: usize,
    gates: Vec<Gate>,
    /// The derived values, computed on first read; cleared by every
    /// mutation.
    derived: OnceLock<Derived>,
}

/// The values a [`Body`] memoizes.
#[derive(Clone, Copy)]
struct Derived {
    fingerprint: Fingerprint,
    depth: usize,
    two_qubit_gates: usize,
}

impl Derived {
    fn of(body: &Body) -> Self {
        let mut layer = vec![0usize; body.num_qubits];
        let (mut depth, mut two_qubit_gates) = (0, 0);
        for gate in &body.gates {
            let q0 = gate.qubit0().index();
            let d = match gate.qubit1() {
                Some(q1) => {
                    two_qubit_gates += 1;
                    let d = layer[q0].max(layer[q1.index()]) + 1;
                    layer[q1.index()] = d;
                    d
                }
                None => layer[q0] + 1,
            };
            layer[q0] = d;
            depth = depth.max(d);
        }
        Derived {
            fingerprint: fingerprint::digest(body.num_qubits, &body.gates),
            depth,
            two_qubit_gates,
        }
    }
}

/// The 2-CX + 3-RZ form of a controlled phase; see
/// [`Circuit::cp_decomposed`].
fn cp_gates(a: Qubit, b: Qubit, lambda: f64) -> [Gate; 5] {
    [
        Gate::rz(a, lambda / 2.0),
        Gate::cx(a, b),
        Gate::rz(b, -lambda / 2.0),
        Gate::cx(a, b),
        Gate::rz(b, lambda / 2.0),
    ]
}

/// The standard 6-CX network of a Toffoli; see
/// [`Circuit::ccx_decomposed`].
fn ccx_gates(c0: usize, c1: usize, t: usize) -> [Gate; 15] {
    [
        Gate::h(t),
        Gate::cx(c1, t),
        Gate::tdg(t),
        Gate::cx(c0, t),
        Gate::t(t),
        Gate::cx(c1, t),
        Gate::tdg(t),
        Gate::cx(c0, t),
        Gate::t(c1),
        Gate::t(t),
        Gate::h(t),
        Gate::cx(c0, c1),
        Gate::t(c0),
        Gate::tdg(c1),
        Gate::cx(c0, c1),
    ]
}

impl Circuit {
    /// An empty circuit over `num_qubits` qubits named `"circuit"`.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            name: Arc::from("circuit"),
            body: Arc::new(Body {
                num_qubits,
                ..Body::default()
            }),
        }
    }

    /// Renames the circuit (builder style). The gates stay shared with
    /// any other handle.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Arc::from(name.into());
        self
    }

    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits the circuit is declared over.
    pub fn num_qubits(&self) -> usize {
        self.body.num_qubits
    }

    /// The gate sequence in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.body.gates
    }

    /// Total number of gates (including measurements).
    pub fn gate_count(&self) -> usize {
        self.body.gates.len()
    }

    /// Number of two-qubit gates (the paper's `#CNOTs` / Table II
    /// "# of 2-Qubit Gates"). Memoized.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.derived().two_qubit_gates
    }

    /// The circuit's structural [`Fingerprint`] (name-independent; see
    /// [`crate::fingerprint`]). Memoized.
    pub fn fingerprint(&self) -> Fingerprint {
        self.derived().fingerprint
    }

    /// The memoized values, computed on the first read after the last
    /// mutation.
    fn derived(&self) -> Derived {
        *self.body.derived.get_or_init(|| Derived::of(&self.body))
    }

    /// Appends `gates` after validating every operand against the
    /// width: one copy-on-write check for the whole batch, and nothing
    /// appended on error.
    fn append(&mut self, gates: &[Gate]) -> Result<(), CircuitError> {
        let width = self.num_qubits();
        for gate in gates {
            for q in std::iter::once(gate.qubit0()).chain(gate.qubit1()) {
                if q.index() >= width {
                    return Err(CircuitError::QubitOutOfRange {
                        qubit: q.index(),
                        width,
                    });
                }
            }
        }
        let body = Arc::make_mut(&mut self.body);
        body.derived.take();
        body.gates.extend_from_slice(gates);
        Ok(())
    }

    /// Appends `gates`, panicking like [`Circuit::push`].
    fn push_all(&mut self, gates: &[Gate]) -> &mut Self {
        self.append(gates)
            .expect("gate operands within circuit width");
        self
    }

    /// Appends a gate after validating its operands against the circuit
    /// width.
    ///
    /// # Errors
    ///
    /// [`CircuitError::QubitOutOfRange`] if an operand index is `>=
    /// num_qubits()`.
    pub fn try_push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        self.append(&[gate])
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if an operand is out of range; use [`Circuit::try_push`]
    /// for a fallible variant.
    pub fn push(&mut self, gate: Gate) {
        self.push_all(&[gate]);
    }

    /// Appends a Hadamard. See [`Circuit::push`] for panics.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::h(q));
        self
    }

    /// Appends a Pauli-X. See [`Circuit::push`] for panics.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::x(q));
        self
    }

    /// Appends a Pauli-Y. See [`Circuit::push`] for panics.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::y(q));
        self
    }

    /// Appends a Pauli-Z. See [`Circuit::push`] for panics.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::z(q));
        self
    }

    /// Appends an S gate. See [`Circuit::push`] for panics.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::s(q));
        self
    }

    /// Appends an S†. See [`Circuit::push`] for panics.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::sdg(q));
        self
    }

    /// Appends a T gate. See [`Circuit::push`] for panics.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Gate::t(q));
        self
    }

    /// Appends a T†. See [`Circuit::push`] for panics.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::tdg(q));
        self
    }

    /// Appends an X-rotation. See [`Circuit::push`] for panics.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::rx(q, theta));
        self
    }

    /// Appends a Y-rotation. See [`Circuit::push`] for panics.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::ry(q, theta));
        self
    }

    /// Appends a Z-rotation. See [`Circuit::push`] for panics.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::rz(q, theta));
        self
    }

    /// Appends a CNOT. See [`Circuit::push`] for panics.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Gate::cx(c, t));
        self
    }

    /// Appends a CZ. See [`Circuit::push`] for panics.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::cz(a, b));
        self
    }

    /// Appends a measurement. See [`Circuit::push`] for panics.
    pub fn measure(&mut self, q: usize) -> &mut Self {
        self.push(Gate::measure(q));
        self
    }

    /// Measures every qubit in index order.
    pub fn measure_all(&mut self) -> &mut Self {
        let gates: Vec<Gate> = (0..self.num_qubits()).map(Gate::measure).collect();
        self.push_all(&gates)
    }

    /// Appends a controlled-phase *decomposed into the 2-CX + 3-RZ
    /// standard form*, which is how QASMBench-style transpiled circuits
    /// count gates (2 two-qubit gates per controlled phase).
    ///
    /// # Panics
    ///
    /// Panics if an operand is out of range or `a == b`.
    pub fn cp_decomposed(&mut self, a: usize, b: usize, lambda: f64) -> &mut Self {
        self.push_all(&cp_gates(a.into(), b.into(), lambda))
    }

    /// Appends a Toffoli (CCX) decomposed into the standard 6-CX network.
    ///
    /// # Panics
    ///
    /// Panics if an operand is out of range or operands are not distinct.
    pub fn ccx_decomposed(&mut self, c0: usize, c1: usize, t: usize) -> &mut Self {
        assert!(
            c0 != c1 && c0 != t && c1 != t,
            "ccx operands must be distinct"
        );
        self.push_all(&ccx_gates(c0, c1, t))
    }

    /// Appends a controlled-SWAP (Fredkin) decomposed into CX + CCX + CX
    /// (8 two-qubit gates with the 6-CX Toffoli).
    ///
    /// # Panics
    ///
    /// Panics if an operand is out of range or operands are not distinct.
    pub fn cswap_decomposed(&mut self, c: usize, a: usize, b: usize) -> &mut Self {
        assert!(
            c != a && c != b && a != b,
            "cswap operands must be distinct"
        );
        // CX, the 15-gate Toffoli, CX.
        let mut gates = [Gate::cx(b, a); 17];
        gates[1..16].copy_from_slice(&ccx_gates(c, a, b));
        self.push_all(&gates)
    }

    /// Circuit depth: the number of layers when gates are packed as
    /// early as dependencies allow. Measurements count as gates.
    /// Returns `0` for an empty circuit. Memoized.
    pub fn depth(&self) -> usize {
        self.derived().depth
    }

    /// Iterates over the indices and operand pairs of all two-qubit
    /// gates, in program order.
    pub fn two_qubit_gates(&self) -> impl Iterator<Item = (usize, Qubit, Qubit)> + '_ {
        self.gates()
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.qubit_pair().map(|(a, b)| (i, a, b)))
    }

    /// Number of measurement gates.
    pub fn measurement_count(&self) -> usize {
        self.gates()
            .iter()
            .filter(|g| g.kind().is_measurement())
            .count()
    }

    /// Lowers structural gates to the CX basis: `Swap → 3 CX`,
    /// `Cp → 2 CX + 3 Rz`. Other gates pass through. Used after QASM
    /// import so gate counts match the transpiled form the paper's
    /// Table II reports.
    pub fn decompose_to_cx_basis(&self) -> Circuit {
        let mut gates = Vec::with_capacity(self.gate_count());
        for gate in self.gates() {
            match gate.kind() {
                GateKind::Swap => {
                    let (a, b) = gate.qubit_pair().expect("swap is two-qubit");
                    gates.extend([Gate::cx(a, b), Gate::cx(b, a), Gate::cx(a, b)]);
                }
                GateKind::Cp(lambda) => {
                    let (a, b) = gate.qubit_pair().expect("cp is two-qubit");
                    gates.extend(cp_gates(a, b, lambda));
                }
                _ => gates.push(*gate),
            }
        }
        let mut out = Circuit {
            name: Arc::clone(&self.name),
            ..Circuit::new(self.num_qubits())
        };
        out.push_all(&gates);
        out
    }
}

impl PartialEq for Circuit {
    /// Field by field, as a derive would compare: no pointer-equality
    /// shortcut, so a circuit holding a NaN angle is unequal even to its
    /// own clone.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.num_qubits() == other.num_qubits()
            && self.gates() == other.gates()
    }
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Circuit")
            .field("name", &self.name())
            .field("num_qubits", &self.num_qubits())
            .field("gates", &self.gates())
            .finish()
    }
}

/// Errors produced by circuit construction.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CircuitError {
    /// A gate referenced a qubit outside the circuit width.
    QubitOutOfRange {
        /// The offending index.
        qubit: usize,
        /// The circuit width.
        width: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { qubit, width } => {
                write!(f, "qubit {qubit} out of range for width {width}")
            }
        }
    }
}

impl Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_validates_width() {
        let mut c = Circuit::new(2);
        assert!(c.try_push(Gate::h(1)).is_ok());
        assert_eq!(
            c.try_push(Gate::h(2)),
            Err(CircuitError::QubitOutOfRange { qubit: 2, width: 2 })
        );
        assert_eq!(
            c.try_push(Gate::cx(0, 5)),
            Err(CircuitError::QubitOutOfRange { qubit: 5, width: 2 })
        );
    }

    #[test]
    fn depth_of_parallel_gates() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        assert_eq!(c.depth(), 1);
        c.cx(0, 1).cx(2, 3);
        assert_eq!(c.depth(), 2);
        c.cx(1, 2);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn depth_empty_circuit() {
        assert_eq!(Circuit::new(3).depth(), 0);
    }

    #[test]
    fn counting_helpers() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cz(1, 2).measure_all();
        assert_eq!(c.gate_count(), 6);
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert_eq!(c.measurement_count(), 3);
    }

    #[test]
    fn cp_decomposition_gate_budget() {
        let mut c = Circuit::new(2);
        c.cp_decomposed(0, 1, 1.0);
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert_eq!(c.gate_count(), 5);
    }

    #[test]
    fn ccx_decomposition_gate_budget() {
        let mut c = Circuit::new(3);
        c.ccx_decomposed(0, 1, 2);
        assert_eq!(c.two_qubit_gate_count(), 6);
    }

    #[test]
    fn cswap_decomposition_gate_budget() {
        let mut c = Circuit::new(3);
        c.cswap_decomposed(0, 1, 2);
        assert_eq!(c.two_qubit_gate_count(), 8);
    }

    #[test]
    fn decompose_to_cx_basis_lowers_swap_and_cp() {
        let mut c = Circuit::new(3);
        c.push(Gate::swap(0, 1));
        c.push(Gate::cp(1, 2, 0.5));
        c.h(2);
        let d = c.decompose_to_cx_basis();
        assert_eq!(d.two_qubit_gate_count(), 5); // 3 (swap) + 2 (cp)
        assert!(d
            .gates()
            .iter()
            .all(|g| !matches!(g.kind(), GateKind::Swap | GateKind::Cp(_))));
    }

    #[test]
    fn two_qubit_gates_iterator_order() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).h(2).cz(1, 2);
        let pairs: Vec<_> = c.two_qubit_gates().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, 1); // gate index of the cx
        assert_eq!(pairs[1].0, 3);
    }

    #[test]
    #[should_panic(expected = "within circuit width")]
    fn push_panics_out_of_range() {
        Circuit::new(1).cx(0, 1);
    }

    #[test]
    #[should_panic(expected = "within circuit width")]
    fn decomposed_helpers_validate_every_operand() {
        Circuit::new(3).ccx_decomposed(0, 1, 3);
    }

    #[test]
    fn clones_share_one_gate_body() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let renamed = c.clone().with_name("renamed");
        assert_eq!(renamed.gates().as_ptr(), c.gates().as_ptr());
        assert_eq!(c.clone().gates().as_ptr(), c.gates().as_ptr());
    }

    #[test]
    fn a_push_onto_a_clone_leaves_the_original_and_its_memo() {
        let mut original = Circuit::new(3).with_name("a");
        original.h(0).cx(0, 1).cz(1, 2);
        let derived = |c: &Circuit| (c.fingerprint(), c.depth(), c.two_qubit_gate_count());
        let before = (original.gates().to_vec(), derived(&original));
        let mut copy = original.clone();
        copy.cx(2, 0).measure_all();
        assert_ne!(copy.gates().as_ptr(), original.gates().as_ptr());
        assert_eq!((original.gates().to_vec(), derived(&original)), before);
        let mut fresh = Circuit::new(3).with_name("a");
        fresh.h(0).cx(0, 1).cz(1, 2).cx(2, 0).measure_all();
        assert_eq!(copy, fresh);
        assert_eq!(derived(&copy), derived(&fresh));
    }

    /// `depth()` as first written: the reference the memoized one-pass
    /// version must reproduce.
    fn naive_depth(c: &Circuit) -> usize {
        let mut layer = vec![0usize; c.num_qubits()];
        let mut max = 0;
        for gate in c.gates() {
            let qubits = gate.qubits();
            let d = qubits.iter().map(|q| layer[q.index()]).max().unwrap_or(0) + 1;
            for q in qubits {
                layer[q.index()] = d;
            }
            max = max.max(d);
        }
        max
    }

    /// Checks every memoized value of `c` against a copy of its gates
    /// that was never read, and against the values' definitions.
    fn check_memo(c: &Circuit) -> Result<(), String> {
        let mut unread = Circuit::new(c.num_qubits());
        for &gate in c.gates() {
            unread.push(gate);
        }
        prop_assert_eq!(c.fingerprint(), unread.fingerprint());
        prop_assert_eq!(c.depth(), unread.depth());
        prop_assert_eq!(c.two_qubit_gate_count(), unread.two_qubit_gate_count());
        prop_assert_eq!(
            c.fingerprint(),
            fingerprint::digest(c.num_qubits(), c.gates())
        );
        prop_assert_eq!(c.depth(), naive_depth(c));
        let two_qubit = c.gates().iter().filter(|g| g.is_two_qubit()).count();
        prop_assert_eq!(c.two_qubit_gate_count(), two_qubit);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn memoized_values_follow_every_mutation(
            n in 2usize..7,
            steps in prop::collection::vec(
                (0u8..12, 0usize..64, 0usize..64, -3.2f64..3.2, 0u8..4),
                0..60,
            ),
        ) {
            let mut c = Circuit::new(n);
            // Clones taken along the way, with the gates they held.
            let mut taken: Vec<(Circuit, Vec<Gate>)> = Vec::new();
            for (op, a, b, theta, then) in steps {
                let (a, b) = (a % n, b % n);
                let b = if a == b { (b + 1) % n } else { b };
                match op {
                    0 => { c.h(a); }
                    1 => { c.rz(a, theta); }
                    2 => { c.cx(a, b); }
                    3 => { c.cz(a, b); }
                    4 => { c.measure(a); }
                    5 => { c.cp_decomposed(a, b, theta); }
                    6 => c.push(Gate::swap(a, b)),
                    7 => c.push(Gate::u(a, theta, -theta, 0.5)),
                    8 => { c.measure_all(); }
                    9 => c = c.decompose_to_cx_basis(),
                    10 if n >= 3 => { c.ccx_decomposed(0, 1, 2); }
                    _ => { c.x(a); }
                }
                match then {
                    0 => {}
                    1 => check_memo(&c)?,
                    2 => taken.push((c.clone(), c.gates().to_vec())),
                    _ => { c.fingerprint(); }
                }
            }
            check_memo(&c)?;
            for (clone, gates) in &taken {
                prop_assert_eq!(clone.gates(), &gates[..]);
                check_memo(clone)?;
            }
        }
    }

    /// What `#[derive(Debug, PartialEq)]` gave the plain struct
    /// `Circuit` was before it shared its body.
    mod plain {
        use crate::gate::Gate;

        #[derive(Debug, PartialEq)]
        pub struct Circuit {
            pub name: String,
            pub num_qubits: usize,
            pub gates: Vec<Gate>,
        }

        impl From<&super::Circuit> for Circuit {
            fn from(c: &super::Circuit) -> Self {
                Circuit {
                    name: c.name().to_owned(),
                    num_qubits: c.num_qubits(),
                    gates: c.gates().to_vec(),
                }
            }
        }
    }

    #[test]
    fn debug_and_equality_match_the_derives() {
        let mut bell = Circuit::new(2).with_name("bell");
        bell.h(0).cx(0, 1);
        let mut nan = Circuit::new(1);
        nan.push(Gate::rz(0, f64::NAN));
        let mut wide = Circuit::new(3).with_name("bell");
        wide.h(0).cx(0, 1);
        let circuits = [
            Circuit::default(),
            Circuit::new(2),
            bell.clone(),
            bell.clone().with_name("other"),
            wide,
            nan.clone(),
        ];
        for c in &circuits {
            let p = plain::Circuit::from(c);
            assert_eq!(format!("{c:?}"), format!("{p:?}"));
            assert_eq!(format!("{c:#?}"), format!("{p:#?}"));
        }
        for a in &circuits {
            for b in &circuits {
                let derived = plain::Circuit::from(a) == plain::Circuit::from(b);
                assert_eq!(a == b, derived, "{a:?} == {b:?}");
                assert_eq!(a == &b.clone(), derived, "{a:?} == clone of {b:?}");
            }
        }
        // Shared gates, yet unequal: NaN is unequal to itself.
        let shared = nan.clone();
        assert_eq!(shared.gates().as_ptr(), nan.gates().as_ptr());
        assert_ne!(shared, nan);
    }

    /// `Circuit` crosses threads like the plain struct did.
    const _: fn() = || {
        fn shareable<T: Send + Sync>() {}
        shareable::<Circuit>();
    };
}
