//! Programmatic constructions of the QASMBench workloads the paper
//! evaluates (Table II).
//!
//! The original benchmark suite ships as OpenQASM files; this module
//! rebuilds each family from its textbook construction, fully lowered to
//! the CX basis (matching how Table II counts "2-qubit gates": e.g.
//! `qft_n160` = 25440 = exactly 2 CX per controlled-phase).
//! [`catalog::table2_reference`] says which Table II counts the tests
//! pin, and the `table2` experiment binary prints measured vs. paper
//! values side by side.
//!
//! Use [`catalog::by_name`] to construct the paper's named instances:
//!
//! ```
//! use cloudqc_circuit::generators::catalog;
//!
//! let qft = catalog::by_name("qft_n160").unwrap();
//! assert_eq!(qft.num_qubits(), 160);
//! assert_eq!(qft.two_qubit_gate_count(), 25440); // matches Table II
//! ```

pub mod adder;
pub mod bv;
pub mod catalog;
pub mod cc;
pub mod ghz;
pub mod ising;
pub mod knn;
pub mod multiplier;
pub mod qft;
pub mod qugan;
pub mod qv;
pub mod swap_test;
pub mod vqe;
