//! Property-based tests for the circuit substrate.

use cloudqc_circuit::dag::{gate_dag, FrontTracker};
use cloudqc_circuit::generators::catalog;
use cloudqc_circuit::interaction::interaction_graph;
use cloudqc_circuit::qasm;
use cloudqc_circuit::{Circuit, Gate, GateKind};
use proptest::prelude::*;

/// Strategy: an arbitrary valid gate over `n` qubits.
fn gate_strategy(n: usize) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    let q2 = 0..n;
    (0u8..12, q, q2, -3.2f64..3.2).prop_map(move |(kind, a, b, theta)| {
        let b = if a == b { (b + 1) % n } else { b };
        match kind {
            0 => Gate::h(a),
            1 => Gate::x(a),
            2 => Gate::y(a),
            3 => Gate::z(a),
            4 => Gate::s(a),
            5 => Gate::t(a),
            6 => Gate::rx(a, theta),
            7 => Gate::ry(a, theta),
            8 => Gate::rz(a, theta),
            9 => Gate::cx(a, b),
            10 => Gate::cz(a, b),
            _ => Gate::measure(a),
        }
    })
}

/// Strategy: a random circuit of 2..=10 qubits and up to 60 gates.
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    (2usize..=10).prop_flat_map(|n| {
        proptest::collection::vec(gate_strategy(n), 0..60).prop_map(move |gates| {
            let mut c = Circuit::new(n);
            for g in gates {
                c.push(g);
            }
            c
        })
    })
}

/// Strategy: QASM-like text. Most statements start with a keyword and
/// continue with the tokens the parser splits on, in any order, so
/// brackets come reversed or unbalanced and multibyte whitespace lands
/// where ASCII is expected. The rest are well-formed declarations of
/// one or `usize::MAX` qubits and broadcasts over them.
fn qasm_fragments() -> impl Strategy<Value = String> {
    let keyword = prop_oneof![
        Just("qreg"),
        Just("creg"),
        Just("h"),
        Just("cx"),
        Just("rz"),
        Just("measure"),
    ];
    let token = prop_oneof![
        2 => Just(" "),
        1 => Just("\u{3000}"),
        2 => Just("q"),
        1 => Just("c"),
        3 => Just("["),
        3 => Just("]"),
        1 => Just("("),
        1 => Just(")"),
        1 => Just(","),
        1 => Just("->"),
        1 => Just(";"),
        1 => Just("0"),
        1 => Just("1"),
        1 => Just("18446744073709551615"),
    ];
    let fragment = (keyword, proptest::collection::vec(token, 0..8))
        .prop_map(|(keyword, tokens)| format!("{keyword}{};", tokens.concat()));
    let declaration = (
        prop_oneof![Just("a"), Just("b")],
        prop_oneof![Just("1"), Just("18446744073709551615")],
    )
        .prop_map(|(name, size)| format!("qreg {name}[{size}];"));
    let broadcast = prop_oneof![Just("h a;".to_owned()), Just("h b;".to_owned())];
    let statement = prop_oneof![2 => fragment, 1 => declaration, 1 => broadcast];
    proptest::collection::vec(statement, 1..6).prop_map(|statements| statements.concat())
}

/// Strategy: arbitrary text, mostly ASCII.
fn arbitrary_text() -> impl Strategy<Value = String> {
    let code = prop_oneof![3 => 0u32..128, 1 => any::<u32>()];
    proptest::collection::vec(code, 0..48).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| char::from_u32(c % 0x11_0000).unwrap_or(char::REPLACEMENT_CHARACTER))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn depth_bounds(c in circuit_strategy()) {
        let depth = c.depth();
        // Depth never exceeds gate count and is zero iff empty.
        prop_assert!(depth <= c.gate_count());
        prop_assert_eq!(depth == 0, c.gate_count() == 0);
        // Depth at least ceil(gates / qubits): each layer holds at most
        // one gate per qubit.
        if c.num_qubits() > 0 {
            prop_assert!(depth * c.num_qubits() >= c.gate_count());
        }
    }

    #[test]
    fn dag_matches_circuit(c in circuit_strategy()) {
        let dag = gate_dag(&c);
        prop_assert_eq!(dag.node_count(), c.gate_count());
        prop_assert!(dag.is_acyclic());
        // Edges always point forward in program order.
        for u in 0..dag.node_count() {
            for &v in dag.successors(u) {
                prop_assert!(v > u);
            }
        }
        // The DAG's critical path equals the packing depth.
        if c.gate_count() > 0 {
            prop_assert_eq!(dag.critical_path_len() + 1, c.depth());
        }
    }

    #[test]
    fn front_tracker_executes_everything_in_topo_order(c in circuit_strategy()) {
        let dag = gate_dag(&c);
        let mut tracker = FrontTracker::new(&dag);
        let mut executed = Vec::new();
        while !tracker.is_done() {
            let gate = tracker.ready()[0];
            tracker.complete(gate);
            executed.push(gate);
        }
        prop_assert_eq!(executed.len(), c.gate_count());
        // Execution order respects every DAG edge.
        let mut pos = vec![0usize; c.gate_count()];
        for (i, &g) in executed.iter().enumerate() {
            pos[g] = i;
        }
        for u in 0..dag.node_count() {
            for &v in dag.successors(u) {
                prop_assert!(pos[u] < pos[v]);
            }
        }
    }

    #[test]
    fn interaction_graph_counts_two_qubit_gates(c in circuit_strategy()) {
        let g = interaction_graph(&c);
        prop_assert_eq!(g.node_count(), c.num_qubits());
        let total_weight: f64 = g.total_edge_weight();
        prop_assert!((total_weight - c.two_qubit_gate_count() as f64).abs() < 1e-9);
    }

    #[test]
    fn qasm_roundtrip_preserves_structure(c in circuit_strategy()) {
        let text = qasm::write(&c);
        let parsed = qasm::parse(&text).unwrap();
        prop_assert_eq!(parsed.num_qubits(), c.num_qubits());
        prop_assert_eq!(parsed.gate_count(), c.gate_count());
        prop_assert_eq!(parsed.two_qubit_gate_count(), c.two_qubit_gate_count());
        prop_assert_eq!(parsed.depth(), c.depth());
        // Kinds survive the trip gate by gate.
        for (a, b) in c.gates().iter().zip(parsed.gates()) {
            prop_assert_eq!(a.kind().qasm_name(), b.kind().qasm_name());
            prop_assert_eq!(a.qubit0(), b.qubit0());
            prop_assert_eq!(a.qubit1(), b.qubit1());
        }
    }

    #[test]
    fn decompose_to_cx_basis_is_idempotent(c in circuit_strategy()) {
        let once = c.decompose_to_cx_basis();
        let twice = once.decompose_to_cx_basis();
        prop_assert_eq!(&once, &twice);
        prop_assert!(once
            .gates()
            .iter()
            .all(|g| !matches!(g.kind(), GateKind::Swap | GateKind::Cp(_))));
    }
}

#[test]
fn catalog_stats_are_stable() {
    // Regression pin: generator characteristics must not drift.
    for (name, qubits, gates) in [
        ("ghz_n127", 127, 126),
        ("qft_n160", 160, 25440),
        ("qugan_n111", 111, 658),
        ("knn_n129", 129, 512),
        ("swap_test_n115", 115, 456),
        ("qv_n100", 100, 15000),
    ] {
        let c = catalog::by_name(name).unwrap();
        assert_eq!(c.num_qubits(), qubits, "{name}");
        assert_eq!(c.two_qubit_gate_count(), gates, "{name}");
    }
}

#[test]
fn qv_catalog_instance_is_deterministic() {
    // The catalog must hand out identical random circuits every time.
    let a = catalog::by_name("qv_n30").unwrap();
    let b = catalog::by_name("qv_n30").unwrap();
    assert_eq!(a, b);
}

proptest! {
    // A parse takes microseconds, so many cases are cheap, and most
    // malformed statements stop the parse before the next one runs.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn qasm_parse_always_returns(text in prop_oneof![qasm_fragments(), arbitrary_text()]) {
        // Any outcome is fine; a panic fails the case.
        let _ = qasm::parse(&text);
    }
}
