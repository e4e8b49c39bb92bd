//! Memory footprint gate: loading the 1M-row SDSS catalog may raise the
//! process's peak resident set (`VmHWM`) by at most 160 MiB. A table is
//! stored once, as typed columns (about 80 MB for `photoobj`); a second,
//! row-major copy of it (a heap `Vec` per row) pushes the rise past
//! 380 MiB.
//!
//! `VmHWM` is process-wide, so this is the only test in its binary.

/// Bound on the `VmHWM` rise while the catalog is built, in MiB.
const MAX_RISE_MIB: u64 = 160;

/// The process's peak resident set, in KiB.
#[cfg(target_os = "linux")]
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

#[cfg(target_os = "linux")]
#[test]
#[cfg_attr(debug_assertions, ignore = "footprint gate: run with --release")]
fn million_row_sdss_catalog_fits_the_footprint_bound() {
    let before = vm_hwm_kib();
    let catalog = pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config::sized(1_000_000));
    let rise_mib = vm_hwm_kib().saturating_sub(before) / 1024;
    assert_eq!(catalog.get("photoobj").expect("photoobj").len, 1_000_000);
    println!("VmHWM rise building the 1M-row SDSS catalog: {rise_mib} MiB");
    assert!(
        rise_mib <= MAX_RISE_MIB,
        "building the 1M-row SDSS catalog raised VmHWM by {rise_mib} MiB (bound {MAX_RISE_MIB} MiB)"
    );
}
