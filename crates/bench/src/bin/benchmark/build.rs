//! Records the compiler version, which every benchmark record carries.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={}", version.trim());
    println!("cargo:rerun-if-env-changed=RUSTC");
}
