//! The `simlint` driver.
//!
//! ```text
//! simlint --workspace [--root <dir>]   # lint the whole workspace
//! simlint <file.rs>...                 # lint specific files (CI smoke)
//! simlint --list-rules                 # print the rule table
//! ```
//!
//! Exit status: 0 when clean, 1 on findings, 2 on usage/I-O errors.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a CLI: diagnostics go to stdout, usage errors to stderr"
)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: simlint --workspace [--root <dir>] | simlint <file.rs>... | \
             simlint --list-rules"
        );
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "--list-rules") {
        for rule in simlint::config::RULES {
            println!("simlint::{rule}");
        }
        return ExitCode::SUCCESS;
    }

    let diags = if args.iter().any(|a| a == "--workspace") {
        let root = match args.iter().position(|a| a == "--root") {
            Some(i) => match args.get(i + 1) {
                Some(dir) => PathBuf::from(dir),
                None => {
                    eprintln!("simlint: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            None => {
                let cwd = std::env::current_dir().expect("cwd");
                match simlint::find_workspace_root(&cwd) {
                    Some(root) => root,
                    None => {
                        eprintln!(
                            "simlint: no workspace root found above {} (pass --root)",
                            cwd.display()
                        );
                        return ExitCode::from(2);
                    }
                }
            }
        };
        simlint::lint_workspace(&root)
    } else {
        let files: Vec<PathBuf> =
            args.iter().filter(|a| !a.starts_with("--")).map(PathBuf::from).collect();
        simlint::lint_files(&files)
    };

    match diags {
        Ok(diags) if diags.is_empty() => {
            println!("simlint: clean");
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            println!("simlint: {} error(s)", diags.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("simlint: {e}");
            ExitCode::from(2)
        }
    }
}
