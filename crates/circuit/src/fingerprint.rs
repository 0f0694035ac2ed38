//! Structural circuit fingerprints.
//!
//! A [`Fingerprint`] is a stable 64-bit digest of everything about a
//! circuit that the placement pipeline can observe: the qubit count and
//! the exact gate sequence (kind, rotation angles, operand indices).
//! Two circuits with equal fingerprints produce identical interaction
//! graphs, gate DAGs and capacity demands, so a placement computed for
//! one is a placement for the other — the property the runtime's
//! placement cache is keyed on.
//!
//! The circuit *name* is deliberately excluded: `qft_n29` submitted by
//! two tenants is the same placement problem.
//!
//! The digest is FNV-1a, computed gate by gate over a fixed byte
//! encoding — no dependence on `std::hash`'s unspecified hasher, so
//! values are reproducible across runs, platforms and toolchains.
//!
//! A circuit computes its fingerprint once, on the first read, and
//! memoizes it in the gate body its clones share (see [`Circuit`]), so
//! the many submissions of one shape pay for one O(gates) pass between
//! them. A mutation copies the body and clears the memo, so the next
//! read digests the new gates.

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind};
use std::fmt;

/// A stable structural digest of a [`Circuit`].
///
/// # Example
///
/// ```
/// use cloudqc_circuit::fingerprint::Fingerprint;
/// use cloudqc_circuit::Circuit;
///
/// let mut a = Circuit::new(2).with_name("bell");
/// a.h(0).cx(0, 1);
/// let mut b = Circuit::new(2).with_name("other-name");
/// b.h(0).cx(0, 1);
/// assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b)); // names ignored
///
/// let mut c = Circuit::new(2);
/// c.h(1).cx(0, 1); // different first operand
/// assert_ne!(Fingerprint::of(&a), Fingerprint::of(&c));
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over little-endian byte encodings.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        // Bit pattern, not value: 0.0 and -0.0 are distinct angles as
        // far as reproducibility is concerned. The QASM parser rejects
        // non-finite angles; a NaN built in code digests by its bits.
        self.write_u64(v.to_bits());
    }
}

/// A small stable discriminant per gate kind (independent of the enum's
/// declaration order, so reordering `GateKind` cannot silently change
/// checked-in signatures).
fn kind_tag(kind: GateKind) -> u64 {
    match kind {
        GateKind::H => 1,
        GateKind::X => 2,
        GateKind::Y => 3,
        GateKind::Z => 4,
        GateKind::S => 5,
        GateKind::Sdg => 6,
        GateKind::T => 7,
        GateKind::Tdg => 8,
        GateKind::Rx(_) => 9,
        GateKind::Ry(_) => 10,
        GateKind::Rz(_) => 11,
        GateKind::U(..) => 12,
        GateKind::Cx => 13,
        GateKind::Cz => 14,
        GateKind::Cp(_) => 15,
        GateKind::Swap => 16,
        GateKind::Measure => 17,
    }
}

/// The fingerprint of `gates` over `num_qubits` qubits: one pass over
/// the gates. [`Circuit`] calls this once per body and memoizes it.
pub(crate) fn digest(num_qubits: usize, gates: &[Gate]) -> Fingerprint {
    let mut h = Fnv(FNV_OFFSET);
    h.write_u64(num_qubits as u64);
    for gate in gates {
        h.write_u64(kind_tag(gate.kind()));
        match gate.kind() {
            GateKind::Rx(t) | GateKind::Ry(t) | GateKind::Rz(t) | GateKind::Cp(t) => {
                h.write_f64(t);
            }
            GateKind::U(t, p, l) => {
                h.write_f64(t);
                h.write_f64(p);
                h.write_f64(l);
            }
            _ => {}
        }
        h.write_u64(gate.qubit0().index() as u64);
        if let Some(q1) = gate.qubit1() {
            h.write_u64(q1.index() as u64 + 1);
        }
    }
    Fingerprint(h.0)
}

impl Fingerprint {
    /// The structural fingerprint of `circuit`: the same memoized value
    /// as [`Circuit::fingerprint`].
    pub fn of(circuit: &Circuit) -> Self {
        circuit.fingerprint()
    }

    /// The raw 64-bit digest.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::catalog;

    #[test]
    fn equal_structure_equal_fingerprint() {
        let a = catalog::by_name("qft_n29").unwrap();
        let b = catalog::by_name("qft_n29").unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn name_is_ignored() {
        let a = catalog::by_name("ghz_n40").unwrap();
        let b = a.clone().with_name("renamed");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn catalog_circuits_are_pairwise_distinct() {
        use std::collections::HashSet;
        let names = ["ghz_n40", "qft_n29", "vqe_n4", "qugan_n39", "knn_n67"];
        let prints: HashSet<Fingerprint> = names
            .iter()
            .map(|n| catalog::by_name(n).unwrap().fingerprint())
            .collect();
        assert_eq!(prints.len(), names.len());
    }

    #[test]
    fn sensitive_to_width_gates_angles_and_operands() {
        let base = {
            let mut c = Circuit::new(3);
            c.h(0).cx(0, 1).rz(2, 1.0);
            c.fingerprint()
        };
        let wider = {
            let mut c = Circuit::new(4);
            c.h(0).cx(0, 1).rz(2, 1.0);
            c.fingerprint()
        };
        let angle = {
            let mut c = Circuit::new(3);
            c.h(0).cx(0, 1).rz(2, 1.5);
            c.fingerprint()
        };
        let operands = {
            let mut c = Circuit::new(3);
            c.h(0).cx(1, 0).rz(2, 1.0);
            c.fingerprint()
        };
        let reordered = {
            let mut c = Circuit::new(3);
            c.cx(0, 1).h(0).rz(2, 1.0);
            c.fingerprint()
        };
        for other in [wider, angle, operands, reordered] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn stable_across_calls_and_display_is_hex() {
        let c = catalog::by_name("ghz_n40").unwrap();
        let fp = c.fingerprint();
        assert_eq!(fp, Fingerprint::of(&c));
        let text = fp.to_string();
        assert_eq!(text.len(), 16);
        assert!(text.chars().all(|ch| ch.is_ascii_hexdigit()));
        assert_eq!(fp.as_u64(), u64::from_str_radix(&text, 16).unwrap());
    }

    #[test]
    fn empty_circuits_differ_by_width_only() {
        assert_ne!(Circuit::new(1).fingerprint(), Circuit::new(2).fingerprint());
        assert_eq!(
            Circuit::new(5).fingerprint(),
            Circuit::new(5).with_name("x").fingerprint()
        );
    }
}
