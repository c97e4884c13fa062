//! Stamps the compiler version into the binary, so every result names the
//! toolchain that built the code it measured.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=PERFLAB_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
