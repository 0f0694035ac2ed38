//! Table II — quantum circuit characteristics, paper vs. this
//! reproduction's generators.

use cloudqc_circuit::generators::catalog::{by_name, table2_reference, TABLE2_INSTANCES};
use cloudqc_circuit::stats::CircuitStats;
use cloudqc_experiments::Table;

fn main() {
    println!("Table II: circuit characteristics (paper -> measured)\n");
    let mut t = Table::new(vec![
        "Name",
        "Qubits",
        "2Q gates (paper)",
        "2Q gates (ours)",
        "Depth (paper)",
        "Depth (ours)",
    ]);
    for name in TABLE2_INSTANCES {
        let circuit = by_name(name).expect("catalog instance");
        let s = CircuitStats::of(&circuit);
        let (q, gates, depth) = table2_reference(name).expect("reference row");
        assert_eq!(s.qubits, q, "{name}: width mismatch");
        t.row(vec![
            name.to_string(),
            s.qubits.to_string(),
            gates.to_string(),
            s.two_qubit_gates.to_string(),
            depth.to_string(),
            s.depth.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nWhich columns are pinned, and the ising_n66 width typo, are documented\non table2_reference in crates/circuit/src/generators/catalog.rs."
    );
}
