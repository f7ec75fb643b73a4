//! CLI entry point: `sslint [--root <dir>] [--format text|jsonl]
//! [--allow <file>] [--list-rules]`.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use util::json::ToJson;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = Format::Text;
    let mut allow = sslint::ALLOWLIST_FILE.to_string();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--allow" => match args.next() {
                Some(v) => allow = v,
                None => return usage("--allow needs a file path"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("jsonl") => format = Format::Jsonl,
                _ => return usage("--format must be `text` or `jsonl`"),
            },
            "--list-rules" => {
                for r in sslint::rules::RULES {
                    println!("{:<18} {:<8} {}", r.id, r.group, r.desc);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let report = match sslint::run(&root, &allow) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sslint: cannot audit {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    match format {
        Format::Jsonl => {
            for f in &report.findings {
                println!("{}", f.to_json().to_string_compact());
            }
        }
        Format::Text => {
            for f in &report.findings {
                println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.msg);
            }
            eprintln!(
                "sslint: {} file(s) audited, {} finding(s), {} suppressed \
                 (inline {}, allowlist {})",
                report.files_audited,
                report.findings.len(),
                report.suppressed_inline + report.suppressed_allowlist,
                report.suppressed_inline,
                report.suppressed_allowlist,
            );
        }
    }

    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

enum Format {
    Text,
    Jsonl,
}

const HELP: &str = "\
sslint — in-tree determinism & hygiene auditor

USAGE: sslint [--root <dir>] [--format text|jsonl] [--allow <file>] [--list-rules]

  --root <dir>     workspace root to audit (default: .)
  --format <fmt>   `text` (default) or `jsonl` (one finding per line)
  --allow <file>   allowlist path relative to the root (default: sslint.allow)
  --list-rules     print the rule catalogue (id, group, description) and exit

Exit codes: 0 clean, 1 findings, 2 usage or I/O error.";

fn usage(msg: &str) -> ExitCode {
    eprintln!("sslint: {msg}\n\n{HELP}");
    ExitCode::from(2)
}
