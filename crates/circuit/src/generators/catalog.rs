//! Named-instance catalog: maps the paper's benchmark names
//! (`qft_n160`, `qugan_n111`, …) to calibrated constructions.

use super::{adder, bv, cc, ghz, ising, knn, multiplier, qft, qugan, qv, swap_test, vqe};
use crate::circuit::Circuit;

/// The 21 instances of the paper's Table II, in table order.
pub const TABLE2_INSTANCES: [&str; 21] = [
    "ghz_n127",
    "bv_n70",
    "bv_n140",
    "ising_n34",
    "ising_n66",
    "ising_n98",
    "cat_n65",
    "cat_n130",
    "swap_test_n115",
    "knn_n67",
    "knn_n129",
    "qugan_n71",
    "qugan_n111",
    "cc_n64",
    "adder_n64",
    "adder_n118",
    "multiplier_n45",
    "multiplier_n75",
    "qft_n63",
    "qft_n160",
    "qv_n100",
];

/// Paper-reported Table II characteristics: `(qubits, 2q gates, depth)`.
///
/// Used by the `table2` experiment binary to print paper vs. measured.
/// How closely [`by_name`] reproduces each column, as this module's
/// tests check it:
///
/// * qubits: every row exactly. The paper lists 34 qubits for
///   `ising_n66`, a typo; this table says 66.
/// * two-qubit gates: exactly for the 15 rows of
///   `exact_table2_gate_counts_where_canonical`, and within 10% for
///   the five rows of `documented_deltas_are_close` (`bv_n140`, both
///   adders and both multipliers). No test here pins `qft_n63`'s
///   count; [`qft::qft`] says why it differs from the paper's.
/// * depth: no test here pins any row.
pub fn table2_reference(name: &str) -> Option<(usize, usize, usize)> {
    Some(match name {
        "ghz_n127" => (127, 126, 128),
        "bv_n70" => (70, 36, 40),
        "bv_n140" => (140, 72, 76),
        "ising_n34" => (34, 66, 16),
        "ising_n66" => (66, 130, 16),
        "ising_n98" => (98, 194, 16),
        "cat_n65" => (65, 64, 66),
        "cat_n130" => (130, 129, 131),
        "swap_test_n115" => (115, 456, 60),
        "knn_n67" => (67, 264, 36),
        "knn_n129" => (129, 512, 67),
        "qugan_n71" => (71, 418, 72),
        "qugan_n111" => (111, 658, 112),
        "cc_n64" => (64, 64, 195),
        "adder_n64" => (64, 455, 78),
        "adder_n118" => (118, 845, 132),
        "multiplier_n45" => (45, 2574, 462),
        "multiplier_n75" => (75, 7350, 1300),
        "qft_n63" => (63, 9828, 494),
        "qft_n160" => (160, 25440, 1270),
        "qv_n100" => (100, 15000, 701),
        _ => return None,
    })
}

/// Constructs a benchmark circuit by its paper name.
///
/// Names follow the `family_nWIDTH` convention; any width valid for the
/// family is accepted (e.g. `qft_n29`, `qugan_n39` from the multi-tenant
/// workloads). Returns `None` for unknown families or widths the family
/// cannot realize (e.g. an even width for the odd-only swap test).
///
/// # Example
///
/// ```
/// use cloudqc_circuit::generators::catalog::by_name;
///
/// assert_eq!(by_name("ghz_n127").unwrap().num_qubits(), 127);
/// assert_eq!(by_name("qft_n29").unwrap().num_qubits(), 29);
/// assert!(by_name("nonsense_n5").is_none());
/// ```
pub fn by_name(name: &str) -> Option<Circuit> {
    let (family, width) = name.rsplit_once("_n")?;
    let n: usize = width.parse().ok()?;
    let circuit = match family {
        "ghz" => {
            if n < 2 {
                return None;
            }
            ghz::ghz(n)
        }
        "cat" => {
            if n < 2 {
                return None;
            }
            ghz::cat(n)
        }
        "bv" => {
            if n < 2 {
                return None;
            }
            bv::bv(n)
        }
        "ising" => {
            if n < 2 {
                return None;
            }
            ising::ising(n)
        }
        "swap_test" => {
            if n < 3 || n.is_multiple_of(2) {
                return None;
            }
            swap_test::swap_test((n - 1) / 2)
        }
        "knn" => {
            if n < 3 || n.is_multiple_of(2) {
                return None;
            }
            knn::knn((n - 1) / 2)
        }
        "qugan" => {
            if n < 5 || n.is_multiple_of(2) {
                return None;
            }
            qugan::qugan((n - 1) / 2)
        }
        "cc" => {
            if n < 3 {
                return None;
            }
            cc::cc(n)
        }
        "adder" => {
            if n < 4 || !n.is_multiple_of(2) {
                return None;
            }
            adder::adder((n - 2) / 2)
        }
        "multiplier" => {
            if n < 6 || !n.is_multiple_of(3) {
                return None;
            }
            multiplier::multiplier(n / 3)
        }
        "qft" => {
            if n < 2 {
                return None;
            }
            qft::qft(n)
        }
        "qv" => {
            if n < 2 {
                return None;
            }
            qv::qv(n)
        }
        "vqe" => {
            if n < 2 {
                return None;
            }
            vqe::vqe(n)
        }
        "vqe_uccsd" => {
            if n < 4 {
                return None;
            }
            vqe::vqe_uccsd(n)
        }
        _ => return None,
    };
    Some(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table2_instance_constructs() {
        for name in TABLE2_INSTANCES {
            let c = by_name(name).unwrap_or_else(|| panic!("{name} failed"));
            let (qubits, _, _) = table2_reference(name).unwrap();
            assert_eq!(c.num_qubits(), qubits, "{name}");
            assert_eq!(c.name(), name, "{name}");
        }
    }

    #[test]
    fn exact_table2_gate_counts_where_canonical() {
        // Families whose construction is canonical must match exactly.
        for name in [
            "ghz_n127",
            "bv_n70",
            "ising_n34",
            "ising_n66",
            "ising_n98",
            "cat_n65",
            "cat_n130",
            "swap_test_n115",
            "knn_n67",
            "knn_n129",
            "qugan_n71",
            "qugan_n111",
            "cc_n64",
            "qft_n160",
            "qv_n100",
        ] {
            let c = by_name(name).unwrap();
            let (_, gates, _) = table2_reference(name).unwrap();
            assert_eq!(c.two_qubit_gate_count(), gates, "{name}");
        }
    }

    #[test]
    fn documented_deltas_are_close() {
        // Non-canonical transpilations: within 10% of the paper's count.
        for name in [
            "bv_n140",
            "adder_n64",
            "adder_n118",
            "multiplier_n45",
            "multiplier_n75",
        ] {
            let c = by_name(name).unwrap();
            let (_, gates, _) = table2_reference(name).unwrap();
            let measured = c.two_qubit_gate_count() as f64;
            let rel = (measured - gates as f64).abs() / gates as f64;
            assert!(rel <= 0.10, "{name}: measured {measured}, paper {gates}");
        }
    }

    #[test]
    fn multi_tenant_workload_instances_construct() {
        for name in [
            "knn_n129",
            "qugan_n111",
            "qugan_n71",
            "qugan_n39",
            "qft_n29",
            "qft_n63",
            "qft_n100",
            "multiplier_n45",
            "multiplier_n75",
            "adder_n64",
            "adder_n118",
            "vqe_uccsd_n28",
        ] {
            assert!(by_name(name).is_some(), "{name}");
        }
    }

    #[test]
    fn invalid_names_rejected() {
        assert!(by_name("qft").is_none());
        assert!(by_name("qft_nxyz").is_none());
        assert!(by_name("swap_test_n100").is_none()); // even width
        assert!(by_name("adder_n63").is_none()); // odd width
        assert!(by_name("multiplier_n44").is_none()); // not 3b
        assert!(by_name("warp_n5").is_none());
    }
}
