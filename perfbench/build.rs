//! Stamps the toolchain and source revision into the binary for the
//! run metadata. A checkout that is not a git repository reports
//! `unknown` for the revision.

use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        capture(&rustc, &["-V"])
    );
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        capture("git", &["rev-parse", "--short=12", "HEAD"])
    );
    println!("cargo:rerun-if-changed=build.rs");
}
