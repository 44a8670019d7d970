//! Table 1 — implementation size, grouped the way the paper reports it
//! (Section VII-A: 5785 LOC total for the Sanctum SM, of which 1011 LOC are
//! platform-independent monitor logic, the rest being cryptography, standard
//! library pieces and boot/platform support).
//!
//! Usage:
//!
//! ```text
//! table1_loc [--out PATH] [--baseline PATH]
//! ```
//!
//! * `--out PATH` — write the SM and TCB code-LOC figures as JSON.
//! * `--baseline PATH` — exit non-zero if the platform-independent SM or
//!   the TCB code LOC exceeds the committed JSON (a one-sided ratchet: the
//!   counts may shrink freely, growth needs a refreshed baseline).
//!
//! Run with: `cargo run -p sanctorum-bench --bin table1_loc`

use sanctorum_bench::extract_number;
use std::fs;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
}

fn count_loc(dir: &Path) -> (usize, usize) {
    // Returns (total non-blank lines, lines excluding tests and comments).
    let mut files = Vec::new();
    rust_files(dir, &mut files);
    let mut total = 0;
    let mut code = 0;
    for file in files {
        let Ok(text) = fs::read_to_string(&file) else { continue };
        let mut in_tests = false;
        let mut brace_depth = 0i64;
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            total += 1;
            if trimmed.starts_with("#[cfg(test)]") {
                in_tests = true;
                brace_depth = 0;
            }
            if in_tests {
                brace_depth += (line.matches('{').count() as i64) - (line.matches('}').count() as i64);
                if brace_depth <= 0 && line.contains('}') && !trimmed.starts_with("#[cfg(test)]") {
                    in_tests = false;
                }
                continue;
            }
            if trimmed.starts_with("//") {
                continue;
            }
            code += 1;
        }
    }
    (total, code)
}

fn main() {
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.next().expect("--out PATH")),
            "--baseline" => baseline = Some(args.next().expect("--baseline PATH")),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let groups: &[(&str, &[&str], &str)] = &[
        (
            "platform-independent SM",
            &["crates/core"],
            "paper: 1011 LOC of portable C99 monitor logic",
        ),
        (
            "platform-specific backends",
            &["crates/platform-sanctum", "crates/platform-keystone", "crates/hal"],
            "paper: Sanctum-specific code + boot assembly",
        ),
        (
            "cryptography",
            &["crates/crypto"],
            "paper: sha3 + standard library routines",
        ),
        (
            "hardware model (simulation substrate)",
            &["crates/machine"],
            "paper: the Sanctum RTL / a real RISC-V machine (not LOC-counted)",
        ),
        (
            "untrusted OS, enclaves, verifier (harness)",
            &["crates/os", "crates/enclave", "crates/verifier"],
            "paper: Linux + application enclaves (outside the TCB)",
        ),
        (
            "benchmarks, tests and examples",
            &["crates/bench", "tests", "examples"],
            "paper: n/a",
        ),
    ];

    println!("Table 1 — implementation size of this reproduction");
    println!("{:<44} {:>10} {:>12}   note", "component", "code LOC", "LOC w/tests");
    let mut sm_code = 0;
    let mut tcb_total = 0;
    for (name, dirs, note) in groups {
        let mut total = 0;
        let mut code = 0;
        for dir in *dirs {
            let (t, c) = count_loc(&root.join(dir));
            total += t;
            code += c;
        }
        if *name == "platform-independent SM" {
            sm_code = code;
        }
        if *name == "platform-independent SM"
            || *name == "platform-specific backends"
            || *name == "cryptography"
        {
            tcb_total += code;
        }
        println!("{name:<44} {code:>10} {total:>12}   {note}");
    }
    println!();
    println!("reproduction TCB analogue (SM + backends + crypto): {tcb_total} LOC");
    println!("paper's reported TCB: 5785 LOC total (5264 C + 521 asm), 1011 LOC platform-independent");

    if let Some(path) = &out {
        let json = format!(
            r#"{{
  "bench": "table1_loc",
  "sm_code_loc": {sm_code},
  "tcb_code_loc": {tcb_total}
}}
"#
        );
        fs::write(path, json).expect("write result JSON");
        println!("wrote {path}");
    }

    if let Some(path) = &baseline {
        let text = fs::read_to_string(path).expect("read baseline JSON");
        let mut grew = false;
        for (key, current) in [("sm_code_loc", sm_code), ("tcb_code_loc", tcb_total)] {
            let committed = extract_number(&text, key)
                .unwrap_or_else(|| panic!("baseline JSON has a {key} field"));
            println!("baseline {path}: {key} {committed} committed, {current} now");
            if current as f64 > committed {
                eprintln!("LOC GATE FAILED: {key} grew from {committed} to {current}");
                grew = true;
            }
        }
        if grew {
            std::process::exit(2);
        }
    }
}
