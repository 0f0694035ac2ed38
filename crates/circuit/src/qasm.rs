//! OpenQASM 2.0 subset parser and writer.
//!
//! The paper analyzes QASMBench circuits (OpenQASM 2.0 files) with
//! PytKet. This module provides the equivalent ingestion path: a parser
//! for the `qelib1.inc` gate subset our IR covers, and a writer for
//! round-tripping. Angle expressions support `pi`, literals, `+ - * /`,
//! unary minus and parentheses.
//!
//! # Example
//!
//! ```
//! use cloudqc_circuit::qasm::{parse, write};
//!
//! let src = r#"
//!     OPENQASM 2.0;
//!     include "qelib1.inc";
//!     qreg q[2];
//!     creg c[2];
//!     h q[0];
//!     cx q[0],q[1];
//!     rz(pi/4) q[1];
//!     measure q[0] -> c[0];
//! "#;
//! let circuit = parse(src).unwrap();
//! assert_eq!(circuit.num_qubits(), 2);
//! assert_eq!(circuit.two_qubit_gate_count(), 1);
//! let text = write(&circuit);
//! let again = parse(&text).unwrap();
//! assert_eq!(again.gate_count(), circuit.gate_count());
//! ```

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind};
use std::error::Error;
use std::f64::consts::PI;
use std::fmt;

/// The most qubits a program may declare across all its `qreg`s —
/// far above any circuit a distributed cloud runs, and low enough that
/// a register broadcast (`h q;`) cannot exhaust memory.
const MAX_QUBITS: usize = 1 << 16;

/// The deepest an angle expression may nest parentheses and unary
/// signs. The evaluator recurses once per level, so the cap bounds its
/// stack; real programs nest a handful of levels.
const MAX_NESTING: usize = 256;

/// A parse failure, with the 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    line: usize,
    message: String,
}

impl ParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line where parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Human-readable description of the failure.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

/// Parses an OpenQASM 2.0 program into a [`Circuit`].
///
/// Supported statements: `OPENQASM`, `include`, `qreg`, `creg` (sizes
/// recorded, bits ignored), gate applications from the supported subset
/// (`h x y z s sdg t tdg rx ry rz u1 p u2 u3 u cx cz cp cu1 swap ccx`),
/// `measure q[i] -> c[j]`, and `barrier` (ignored). Multiple `qreg`s are
/// flattened into one index space in declaration order. `ccx` is
/// decomposed into the 6-CX network on parse (our IR is 1/2-qubit only).
///
/// # Errors
///
/// Returns [`ParseError`] on unknown statements/gates, malformed
/// operands, out-of-range indices, bad angle expressions (including
/// ones nesting parentheses and unary signs more than 256 deep, and
/// ones whose literal or value is not finite), or more than 65 536
/// declared qubits.
pub fn parse(source: &str) -> Result<Circuit, ParseError> {
    let mut qregs: Vec<(String, usize, usize)> = Vec::new(); // (name, offset, size)
    let mut total_qubits = 0usize;
    let mut statements: Vec<(usize, String)> = Vec::new();

    // Statement splitter: strip comments, join on ';'.
    let mut pending = String::new();
    let mut pending_line = 1;
    for (lineno, raw) in source.lines().enumerate() {
        let line = match raw.find("//") {
            Some(idx) => &raw[..idx],
            None => raw,
        };
        for ch in line.chars() {
            if ch == ';' {
                let stmt = pending.trim().to_owned();
                if !stmt.is_empty() {
                    statements.push((pending_line, stmt));
                }
                pending.clear();
                pending_line = lineno + 1;
            } else {
                if pending.trim().is_empty() {
                    pending_line = lineno + 1;
                }
                pending.push(ch);
            }
        }
        pending.push(' ');
    }
    if !pending.trim().is_empty() {
        return Err(ParseError::new(
            pending_line,
            format!("unterminated statement: `{}`", pending.trim()),
        ));
    }

    let mut gates: Vec<Gate> = Vec::new();
    let mut name = "qasm".to_owned();

    for (line, stmt) in statements {
        let stmt = stmt.trim();
        if stmt.starts_with("OPENQASM") {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("include") {
            let inc = rest.trim().trim_matches('"');
            if inc != "qelib1.inc" {
                return Err(ParseError::new(
                    line,
                    format!("unsupported include `{inc}`"),
                ));
            }
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("qreg") {
            let (reg, size) = parse_reg_decl(rest, line)?;
            if qregs.iter().any(|(n, _, _)| *n == reg) {
                return Err(ParseError::new(line, format!("duplicate qreg `{reg}`")));
            }
            if qregs.is_empty() {
                name = reg.clone();
            }
            qregs.push((reg, total_qubits, size));
            total_qubits = total_qubits
                .checked_add(size)
                .filter(|&total| total <= MAX_QUBITS)
                .ok_or_else(|| {
                    ParseError::new(line, format!("more than {MAX_QUBITS} qubits declared"))
                })?;
            continue;
        }
        if stmt.starts_with("creg") {
            // Classical bits are not modeled; sizes validated lazily.
            parse_reg_decl(stmt.strip_prefix("creg").unwrap_or(""), line)?;
            continue;
        }
        if stmt.starts_with("barrier") {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("measure") {
            let (lhs, _rhs) = rest
                .split_once("->")
                .ok_or_else(|| ParseError::new(line, "measure missing `->`"))?;
            for q in resolve_operand(lhs.trim(), &qregs, line)? {
                gates.push(Gate::measure(q));
            }
            continue;
        }
        // Gate application: name[(params)] operands.
        let (head, operands_text) = split_gate_head(stmt, line)?;
        let (gate_name, params) = match head.find('(') {
            Some(open) => {
                let close = head
                    .rfind(')')
                    .ok_or_else(|| ParseError::new(line, "missing `)`"))?;
                let params = head[open + 1..close]
                    .split(',')
                    .map(|e| eval_expr(e, line))
                    .collect::<Result<Vec<f64>, _>>()?;
                (head[..open].trim().to_owned(), params)
            }
            None => (head.trim().to_owned(), Vec::new()),
        };
        let operand_groups: Vec<Vec<usize>> = operands_text
            .split(',')
            .map(|op| resolve_operand(op.trim(), &qregs, line))
            .collect::<Result<_, _>>()?;
        emit_gate(&gate_name, &params, &operand_groups, &mut gates, line)?;
    }

    let mut circuit = Circuit::new(total_qubits).with_name(name);
    for gate in gates {
        circuit
            .try_push(gate)
            .map_err(|e| ParseError::new(0, e.to_string()))?;
    }
    Ok(circuit)
}

/// Splits `cx q[0],q[1]` into head (`cx`, possibly with `(...)`) and the
/// operand text, honoring parentheses in parameters. Only ASCII
/// whitespace separates them, as in the OpenQASM 2.0 grammar.
fn split_gate_head(stmt: &str, line: usize) -> Result<(String, String), ParseError> {
    let mut depth = 0usize;
    for (idx, ch) in stmt.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| ParseError::new(line, "unbalanced `)`"))?;
            }
            c if c.is_ascii_whitespace() && depth == 0 => {
                return Ok((stmt[..idx].to_owned(), stmt[idx + 1..].to_owned()));
            }
            _ => {}
        }
    }
    Err(ParseError::new(
        line,
        format!("malformed statement `{stmt}`"),
    ))
}

/// Parses `q[16]` from a register declaration.
fn parse_reg_decl(rest: &str, line: usize) -> Result<(String, usize), ParseError> {
    let rest = rest.trim();
    let open = rest
        .find('[')
        .ok_or_else(|| ParseError::new(line, "register declaration missing `[`"))?;
    let close = open
        + rest[open..]
            .find(']')
            .ok_or_else(|| ParseError::new(line, "register declaration missing `]`"))?;
    let name = rest[..open].trim().to_owned();
    let size: usize = rest[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| ParseError::new(line, "bad register size"))?;
    if name.is_empty() {
        return Err(ParseError::new(line, "empty register name"));
    }
    Ok((name, size))
}

/// Resolves `q[3]` to one flat index, or a bare register name `q` to all
/// its indices (register broadcast, as QASM allows for e.g. `h q;`).
fn resolve_operand(
    text: &str,
    qregs: &[(String, usize, usize)],
    line: usize,
) -> Result<Vec<usize>, ParseError> {
    let text = text.trim();
    if let Some(open) = text.find('[') {
        let close = open
            + text[open..]
                .find(']')
                .ok_or_else(|| ParseError::new(line, "operand missing `]`"))?;
        let reg = text[..open].trim();
        let idx: usize = text[open + 1..close]
            .trim()
            .parse()
            .map_err(|_| ParseError::new(line, "bad operand index"))?;
        let (_, offset, size) = qregs
            .iter()
            .find(|(n, _, _)| n == reg)
            .ok_or_else(|| ParseError::new(line, format!("unknown register `{reg}`")))?;
        if idx >= *size {
            return Err(ParseError::new(
                line,
                format!("index {idx} out of range for register `{reg}[{size}]`"),
            ));
        }
        Ok(vec![offset + idx])
    } else {
        let (_, offset, size) = qregs
            .iter()
            .find(|(n, _, _)| n == text)
            .ok_or_else(|| ParseError::new(line, format!("unknown register `{text}`")))?;
        Ok((*offset..offset + size).collect())
    }
}

/// Emits IR gates for one parsed application, broadcasting over
/// whole-register operands.
fn emit_gate(
    name: &str,
    params: &[f64],
    operands: &[Vec<usize>],
    gates: &mut Vec<Gate>,
    line: usize,
) -> Result<(), ParseError> {
    let p = |i: usize| -> Result<f64, ParseError> {
        params
            .get(i)
            .copied()
            .ok_or_else(|| ParseError::new(line, format!("`{name}` missing parameter {i}")))
    };
    let single_kind: Option<GateKind> = match name {
        "h" => Some(GateKind::H),
        "x" => Some(GateKind::X),
        "y" => Some(GateKind::Y),
        "z" => Some(GateKind::Z),
        "s" => Some(GateKind::S),
        "sdg" => Some(GateKind::Sdg),
        "t" => Some(GateKind::T),
        "tdg" => Some(GateKind::Tdg),
        "id" => None, // identity: drop
        "rx" => Some(GateKind::Rx(p(0)?)),
        "ry" => Some(GateKind::Ry(p(0)?)),
        "rz" | "u1" | "p" => Some(GateKind::Rz(p(0)?)),
        "u2" => Some(GateKind::U(PI / 2.0, p(0)?, p(1)?)),
        "u3" | "u" => Some(GateKind::U(p(0)?, p(1)?, p(2)?)),
        _ => None,
    };
    if name == "id" {
        return Ok(());
    }
    if let Some(kind) = single_kind {
        if operands.len() != 1 {
            return Err(ParseError::new(line, format!("`{name}` takes one operand")));
        }
        for &q in &operands[0] {
            gates.push(Gate::one(kind, q));
        }
        return Ok(());
    }
    let two_kind: Option<GateKind> = match name {
        "cx" | "CX" => Some(GateKind::Cx),
        "cz" => Some(GateKind::Cz),
        "cp" | "cu1" => Some(GateKind::Cp(p(0)?)),
        "swap" => Some(GateKind::Swap),
        _ => None,
    };
    if let Some(kind) = two_kind {
        if operands.len() != 2 || operands[0].len() != 1 || operands[1].len() != 1 {
            return Err(ParseError::new(
                line,
                format!("`{name}` takes two single-qubit operands"),
            ));
        }
        if operands[0][0] == operands[1][0] {
            return Err(ParseError::new(
                line,
                format!("`{name}` operands must differ"),
            ));
        }
        gates.push(Gate::two(kind, operands[0][0], operands[1][0]));
        return Ok(());
    }
    if name == "ccx" {
        if operands.len() != 3 || operands.iter().any(|o| o.len() != 1) {
            return Err(ParseError::new(
                line,
                "`ccx` takes three single-qubit operands",
            ));
        }
        let (c0, c1, t) = (operands[0][0], operands[1][0], operands[2][0]);
        if c0 == c1 || c0 == t || c1 == t {
            return Err(ParseError::new(line, "`ccx` operands must be distinct"));
        }
        // Decompose into the standard 6-CX network (our IR is 1/2-qubit).
        let mut tmp = Circuit::new(usize::max(c0, usize::max(c1, t)) + 1);
        tmp.ccx_decomposed(c0, c1, t);
        gates.extend_from_slice(tmp.gates());
        return Ok(());
    }
    Err(ParseError::new(line, format!("unsupported gate `{name}`")))
}

/// Evaluates an angle expression: numbers, `pi`, `+ - * /`, unary minus,
/// parentheses. A literal that overflows to infinity, or a result that
/// is not finite (`1e300*1e300`, `1e308*10-1e308*10`), is an error: a
/// NaN angle would make a circuit unequal to its own copy.
fn eval_expr(text: &str, line: usize) -> Result<f64, ParseError> {
    let tokens = tokenize(text, line)?;
    let mut pos = 0;
    let value = parse_sum(&tokens, &mut pos, line, 0)?;
    if pos != tokens.len() {
        return Err(ParseError::new(
            line,
            format!("trailing tokens in `{text}`"),
        ));
    }
    if !value.is_finite() {
        return Err(ParseError::new(
            line,
            format!("angle `{}` is not finite", text.trim()),
        ));
    }
    Ok(value)
}

#[derive(Clone, Debug, PartialEq)]
enum Token {
    Num(f64),
    Plus,
    Minus,
    Star,
    Slash,
    Open,
    Close,
}

fn tokenize(text: &str, line: usize) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '(' => {
                tokens.push(Token::Open);
                i += 1;
            }
            ')' => {
                tokens.push(Token::Close);
                i += 1;
            }
            'p' | 'P' => {
                if i + 1 < chars.len() && (chars[i + 1] == 'i' || chars[i + 1] == 'I') {
                    tokens.push(Token::Num(PI));
                    i += 2;
                } else {
                    return Err(ParseError::new(line, format!("bad token in `{text}`")));
                }
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || chars[i] == '.'
                        || chars[i] == 'e'
                        || chars[i] == 'E'
                        || ((chars[i] == '+' || chars[i] == '-')
                            && i > start
                            && (chars[i - 1] == 'e' || chars[i - 1] == 'E')))
                {
                    i += 1;
                }
                let lit: String = chars[start..i].iter().collect();
                let num: f64 = lit
                    .parse()
                    .map_err(|_| ParseError::new(line, format!("bad number `{lit}`")))?;
                if !num.is_finite() {
                    return Err(ParseError::new(
                        line,
                        format!("number `{lit}` is not finite"),
                    ));
                }
                tokens.push(Token::Num(num));
            }
            _ => {
                return Err(ParseError::new(
                    line,
                    format!("bad character `{c}` in `{text}`"),
                ))
            }
        }
    }
    Ok(tokens)
}

/// `depth` counts the parentheses and unary signs enclosing the
/// expression; see [`MAX_NESTING`].
fn parse_sum(
    tokens: &[Token],
    pos: &mut usize,
    line: usize,
    depth: usize,
) -> Result<f64, ParseError> {
    let mut value = parse_product(tokens, pos, line, depth)?;
    while let Some(tok) = tokens.get(*pos) {
        match tok {
            Token::Plus => {
                *pos += 1;
                value += parse_product(tokens, pos, line, depth)?;
            }
            Token::Minus => {
                *pos += 1;
                value -= parse_product(tokens, pos, line, depth)?;
            }
            _ => break,
        }
    }
    Ok(value)
}

fn parse_product(
    tokens: &[Token],
    pos: &mut usize,
    line: usize,
    depth: usize,
) -> Result<f64, ParseError> {
    let mut value = parse_atom(tokens, pos, line, depth)?;
    while let Some(tok) = tokens.get(*pos) {
        match tok {
            Token::Star => {
                *pos += 1;
                value *= parse_atom(tokens, pos, line, depth)?;
            }
            Token::Slash => {
                *pos += 1;
                let rhs = parse_atom(tokens, pos, line, depth)?;
                if rhs == 0.0 {
                    return Err(ParseError::new(line, "division by zero in angle"));
                }
                value /= rhs;
            }
            _ => break,
        }
    }
    Ok(value)
}

fn parse_atom(
    tokens: &[Token],
    pos: &mut usize,
    line: usize,
    depth: usize,
) -> Result<f64, ParseError> {
    if depth > MAX_NESTING {
        return Err(ParseError::new(
            line,
            format!("angle expression nests deeper than {MAX_NESTING}"),
        ));
    }
    match tokens.get(*pos) {
        Some(Token::Num(v)) => {
            *pos += 1;
            Ok(*v)
        }
        Some(Token::Minus) => {
            *pos += 1;
            Ok(-parse_atom(tokens, pos, line, depth + 1)?)
        }
        Some(Token::Plus) => {
            *pos += 1;
            parse_atom(tokens, pos, line, depth + 1)
        }
        Some(Token::Open) => {
            *pos += 1;
            let value = parse_sum(tokens, pos, line, depth + 1)?;
            if tokens.get(*pos) != Some(&Token::Close) {
                return Err(ParseError::new(line, "missing `)` in angle expression"));
            }
            *pos += 1;
            Ok(value)
        }
        _ => Err(ParseError::new(
            line,
            "expected a value in angle expression",
        )),
    }
}

/// Writes a circuit as OpenQASM 2.0 with a single `q` register.
pub fn write(circuit: &Circuit) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let n = circuit.num_qubits();
    let _ = writeln!(out, "OPENQASM 2.0;");
    let _ = writeln!(out, "include \"qelib1.inc\";");
    let _ = writeln!(out, "qreg q[{n}];");
    let _ = writeln!(out, "creg c[{n}];");
    for gate in circuit.gates() {
        let q0 = gate.qubit0().index();
        match gate.kind() {
            GateKind::Measure => {
                let _ = writeln!(out, "measure q[{q0}] -> c[{q0}];");
            }
            GateKind::Rx(t) => {
                let _ = writeln!(out, "rx({t}) q[{q0}];");
            }
            GateKind::Ry(t) => {
                let _ = writeln!(out, "ry({t}) q[{q0}];");
            }
            GateKind::Rz(t) => {
                let _ = writeln!(out, "rz({t}) q[{q0}];");
            }
            GateKind::U(t, p, l) => {
                let _ = writeln!(out, "u3({t},{p},{l}) q[{q0}];");
            }
            GateKind::Cp(l) => {
                let q1 = gate.qubit1().expect("cp is two-qubit").index();
                let _ = writeln!(out, "cu1({l}) q[{q0}],q[{q1}];");
            }
            kind if kind.is_two_qubit() => {
                let q1 = gate.qubit1().expect("two-qubit gate").index();
                let _ = writeln!(out, "{} q[{q0}],q[{q1}];", kind.qasm_name());
            }
            kind => {
                let _ = writeln!(out, "{} q[{q0}];", kind.qasm_name());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BELL: &str = r#"
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        creg c[2];
        h q[0];
        cx q[0],q[1];
        measure q[0] -> c[0];
        measure q[1] -> c[1];
    "#;

    #[test]
    fn parses_bell() {
        let c = parse(BELL).unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.gate_count(), 4);
        assert_eq!(c.two_qubit_gate_count(), 1);
        assert_eq!(c.measurement_count(), 2);
    }

    #[test]
    fn angle_expressions() {
        assert!((eval_expr("pi/4", 0).unwrap() - PI / 4.0).abs() < 1e-12);
        assert!((eval_expr("-pi", 0).unwrap() + PI).abs() < 1e-12);
        assert!((eval_expr("2*pi/3", 0).unwrap() - 2.0 * PI / 3.0).abs() < 1e-12);
        assert!((eval_expr("(1+2)*3", 0).unwrap() - 9.0).abs() < 1e-12);
        assert!((eval_expr("1.5e-3", 0).unwrap() - 0.0015).abs() < 1e-15);
        assert!(eval_expr("pi/0", 0).is_err());
        assert!(eval_expr("foo", 0).is_err());
    }

    #[test]
    fn non_finite_angles_are_rejected() {
        let inf = eval_expr("1e999", 0).unwrap_err();
        assert_eq!(inf.message(), "number `1e999` is not finite");
        let nan = eval_expr("1e308*10-1e308*10", 0).unwrap_err();
        assert_eq!(nan.message(), "angle `1e308*10-1e308*10` is not finite");
        assert!(eval_expr("1e999-1e999", 0).is_err());
        assert!(eval_expr("-1e308*10", 0).is_err());
        assert_eq!(eval_expr("1e308", 0).unwrap(), 1e308);
        for (angle, message) in [
            ("1e999-1e999", "number `1e999` is not finite"),
            ("1e300*1e300", "angle `1e300*1e300` is not finite"),
        ] {
            let src = format!("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nrz({angle}) q[0];\n");
            let err = parse(&src).unwrap_err();
            assert_eq!((err.line(), err.message()), (4, message), "{angle}");
        }
    }

    #[test]
    fn parameterized_gates() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            rz(pi/2) q[0];
            u3(0.1, 0.2, 0.3) q[1];
            cu1(-pi/8) q[0],q[1];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.gate_count(), 3);
        assert!(matches!(c.gates()[0].kind(), GateKind::Rz(t) if (t - PI / 2.0).abs() < 1e-12));
        assert!(matches!(c.gates()[2].kind(), GateKind::Cp(t) if (t + PI / 8.0).abs() < 1e-12));
    }

    #[test]
    fn register_broadcast() {
        let src = "OPENQASM 2.0; qreg q[3]; h q; measure q -> c;";
        let c = parse(src).unwrap();
        assert_eq!(c.gate_count(), 6); // 3 H + 3 measure
    }

    #[test]
    fn multiple_qregs_flattened() {
        let src = "OPENQASM 2.0; qreg a[2]; qreg b[2]; cx a[1],b[0];";
        let c = parse(src).unwrap();
        assert_eq!(c.num_qubits(), 4);
        let g = c.gates()[0];
        assert_eq!(g.qubit0().index(), 1);
        assert_eq!(g.qubit1().unwrap().index(), 2);
    }

    #[test]
    fn ccx_is_decomposed() {
        let src = "OPENQASM 2.0; qreg q[3]; ccx q[0],q[1],q[2];";
        let c = parse(src).unwrap();
        assert_eq!(c.two_qubit_gate_count(), 6);
    }

    #[test]
    fn comments_and_barriers_ignored() {
        let src = "OPENQASM 2.0; // hi\nqreg q[2]; barrier q; h q[0]; // done\n";
        let c = parse(src).unwrap();
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "OPENQASM 2.0;\nqreg q[2];\nbadgate q[0];\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.message().contains("badgate"));
    }

    #[test]
    fn out_of_range_index_rejected() {
        let src = "OPENQASM 2.0; qreg q[2]; h q[5];";
        assert!(parse(src).is_err());
    }

    #[test]
    fn duplicate_qreg_rejected() {
        let src = "OPENQASM 2.0; qreg q[2]; qreg q[3];";
        assert!(parse(src).is_err());
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let c = parse(BELL).unwrap();
        let text = write(&c);
        let again = parse(&text).unwrap();
        assert_eq!(again.num_qubits(), c.num_qubits());
        assert_eq!(again.gate_count(), c.gate_count());
        assert_eq!(again.two_qubit_gate_count(), c.two_qubit_gate_count());
    }

    #[test]
    fn equal_two_qubit_operands_rejected() {
        let src = "OPENQASM 2.0; qreg q[2]; cx q[0],q[0];";
        assert!(parse(src).is_err());
    }

    #[test]
    fn qreg_with_close_before_open_rejected() {
        assert!(parse("qreg ]q[;").is_err());
    }

    #[test]
    fn creg_with_close_before_open_rejected() {
        assert!(parse("creg ]c[;").is_err());
    }

    #[test]
    fn operand_with_close_before_open_rejected() {
        assert!(parse("qreg q[1]; h ]q[;").is_err());
    }

    #[test]
    fn non_ascii_whitespace_after_gate_name_rejected() {
        // U+3000 is Unicode whitespace three bytes wide, but not a
        // separator in the OpenQASM 2.0 grammar.
        assert!(parse("qreg q[1]; h\u{3000}q[0];").is_err());
    }

    #[test]
    fn qubit_count_overflow_rejected() {
        let err = parse("qreg a[18446744073709551615]; qreg b[1];").unwrap_err();
        assert!(err.message().contains("qubits declared"), "{err}");
    }

    #[test]
    fn oversized_register_broadcast_rejected() {
        assert!(parse("qreg q[18446744073709551615]; h q;").is_err());
        assert!(parse("qreg a[65536]; qreg b[1];").is_err());
        assert_eq!(parse("qreg q[65536];").unwrap().num_qubits(), 65_536);
    }

    /// A program applying `rz(expr)` to one qubit.
    fn rz_program(expr: &str) -> String {
        format!("qreg q[1]; rz({expr}) q[0];")
    }

    #[test]
    fn deeply_nested_parentheses_rejected() {
        let nested = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(eval_expr(&nested(MAX_NESTING), 0).unwrap(), 1.0);
        assert!(parse(&rz_program(&nested(MAX_NESTING))).is_ok());
        for n in [MAX_NESTING + 1, 100_000] {
            let err = eval_expr(&nested(n), 0).unwrap_err();
            assert!(err.message().contains("nests deeper"), "{err}");
            assert!(parse(&rz_program(&nested(n))).is_err());
        }
        assert!(eval_expr(&"(".repeat(100_000), 0).is_err());
        assert!(parse(&format!("qreg q[1]; rz({} q[0];", "(".repeat(100_000))).is_err());
    }

    #[test]
    fn long_unary_sign_runs_rejected() {
        let signs = |n: usize| format!("{}1", "-".repeat(n));
        assert_eq!(eval_expr(&signs(MAX_NESTING), 0).unwrap(), 1.0);
        assert_eq!(
            eval_expr(&format!("+{}", signs(MAX_NESTING - 1)), 0).unwrap(),
            -1.0
        );
        assert!(parse(&rz_program(&signs(MAX_NESTING))).is_ok());
        for n in [MAX_NESTING + 1, 1_000_000] {
            let err = eval_expr(&signs(n), 0).unwrap_err();
            assert!(err.message().contains("nests deeper"), "{err}");
            assert!(parse(&rz_program(&signs(n))).is_err());
        }
    }
}
