//! Memory footprint gate for the shared result cache: filling its 256
//! entries with distinct Figure 1 pans and zooms over the 1M-row SDSS
//! catalog may raise the process's peak resident set (`VmHWM`) by at most
//! [`MAX_RISE_MIB`]. The 256 windows hold about 2M rows (4M cells). A
//! result column holds the storage's typed cells, an `f64` a cell for `ra`
//! and `dec`, and the rise reads about 16 MiB (the resident set grows by
//! about 32 MiB, part of it below the peak the catalog build left); one
//! 24-byte `Value` per cell raised it by 76 MiB on the same windows.
//!
//! `VmHWM` is process-wide, so this is the only test in its binary.

/// Bound on the `VmHWM` rise while the cache fills, in MiB.
const MAX_RISE_MIB: u64 = 40;

/// The process's peak and current resident set, in KiB.
#[cfg(target_os = "linux")]
fn vm_kib(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status line")
}

/// 256 distinct Figure 1 windows: sixteen anchors over the two demo
/// clusters and the sky beside them, each visited at 2°, 1° and 0.5° widths
/// and panned along `ra` in 0.25° steps.
fn windows() -> Vec<String> {
    let anchors = [176.5, 179.0, 181.5, 184.0, 186.5, 189.0, 191.5, 194.0];
    let mut out = Vec::new();
    for i in 0..256 {
        let (ra, dec) = (anchors[i % 8], if i % 16 < 8 { -1.0 } else { 2.0 });
        let k = i / 16;
        let half = [1.0, 0.5, 0.25][k % 3];
        let ra = ra + k as f64 * 0.25 - 2.0;
        out.push(format!(
            "SELECT ra, dec FROM photoobj WHERE ra BETWEEN {} AND {} AND dec BETWEEN {} AND {}",
            ra - half,
            ra + half,
            dec - half,
            dec + half
        ));
    }
    out
}

#[cfg(target_os = "linux")]
#[test]
#[cfg_attr(debug_assertions, ignore = "footprint gate: run with --release")]
fn filling_the_result_cache_with_figure_1_windows_fits_the_footprint_bound() {
    let catalog = pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config::sized(1_000_000));
    let windows = windows();
    let distinct: std::collections::HashSet<&String> = windows.iter().collect();
    assert_eq!(distinct.len(), 256, "the windows must be distinct");
    let (hwm, rss) = (vm_kib("VmHWM:"), vm_kib("VmRSS:"));
    let mut rows = 0;
    for sql in &windows {
        rows += catalog.execute_sql(sql).expect("window query").len();
    }
    // Every window is still cached: a second pass re-executes nothing.
    let fresh = catalog.exec_path_counts();
    for sql in &windows {
        catalog.execute_sql(sql).expect("window query");
    }
    assert_eq!(catalog.exec_path_counts(), fresh, "a window was evicted");
    let rise_mib = vm_kib("VmHWM:").saturating_sub(hwm) / 1024;
    let rss_mib = vm_kib("VmRSS:").saturating_sub(rss) / 1024;
    println!(
        "256 cached windows, {rows} rows ({} cells): VmHWM rise {rise_mib} MiB, VmRSS rise \
         {rss_mib} MiB",
        2 * rows
    );
    assert!(
        rise_mib <= MAX_RISE_MIB,
        "filling the result cache raised VmHWM by {rise_mib} MiB (bound {MAX_RISE_MIB} MiB)"
    );
}
