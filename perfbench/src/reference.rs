//! The committed reference results the benchmark checks its statistical
//! outputs against.
//!
//! The rows are embedded, so a run reads nothing under `results/` and
//! cannot depend on a report a developer happened to generate; the
//! tests below hold them equal to the committed CSVs.

use qpdo_stats::wilson_interval;

/// Width of the Wilson bands, in standard deviations.
const Z: f64 = 5.0;

/// `(distance, p, shots, failures)` rows of `results/distance_scaling.csv`
/// at the workloads' sweep points.
const DISTANCE_SCALING: [(usize, f64, u64, u64); 2] =
    [(3, 0.08, 20000, 1789), (13, 0.06, 20000, 409)];

/// The `(per, ler_pf)` rows of `results/ler_curve_XL.csv` that bracket
/// p = 1e-3.
const LER_CURVE_XL: [(f64, f64); 2] = [
    (0.000_611_575_384_321_278_1, 0.001_366_522_778_213_381_3),
    (0.001_069_448_800_053_392_9, 0.004_476_750_213_464_3),
];

/// Checks a code-capacity LER against the committed distance-scaling
/// row at `(d, p)`: the two 5σ Wilson intervals must overlap. Returns a
/// one-line description of the comparison either way.
pub fn check_surface(d: usize, p: f64, shots: u64, failures: u64) -> Result<String, String> {
    let &(_, _, ref_shots, ref_failures) = DISTANCE_SCALING
        .iter()
        .find(|row| row.0 == d && (row.1 - p).abs() < 1e-12)
        .ok_or_else(|| format!("no committed reference row for d={d} p={p}"))?;
    let (ref_lo, ref_hi) = wilson_interval(ref_failures, ref_shots, Z);
    let (lo, hi) = wilson_interval(failures, shots, Z);
    let line = format!(
        "LER {:.5} over {shots} shots, 5-sigma [{lo:.5}, {hi:.5}]; reference {:.5}, \
         5-sigma [{ref_lo:.5}, {ref_hi:.5}]",
        failures as f64 / shots.max(1) as f64,
        ref_failures as f64 / ref_shots as f64
    );
    if lo <= ref_hi && ref_lo <= hi {
        Ok(line)
    } else {
        Err(line)
    }
}

/// The band the SC17 per-window LER must meet at `p`: a factor of two
/// around the log-log interpolation of the committed framed curve. The
/// curve's own per-point spread is 15-40%, so a tighter band would test
/// the reference, not the code.
fn sc17_band(p: f64) -> Result<(f64, f64), String> {
    let [(pa, la), (pb, lb)] = LER_CURVE_XL;
    if !(pa..=pb).contains(&p) {
        return Err(format!("the committed curve rows do not bracket p={p}"));
    }
    let t = (p / pa).ln() / (pb / pa).ln();
    let ler = (la.ln() + t * (lb / la).ln()).exp();
    Ok((ler / 2.0, ler * 2.0))
}

/// Checks an SC17 per-window LER against [`sc17_band`]: the measured
/// 5σ Wilson interval must meet the band.
pub fn check_sc17(p: f64, windows: u64, errors: u64) -> Result<String, String> {
    let (band_lo, band_hi) = sc17_band(p)?;
    let (lo, hi) = wilson_interval(errors, windows, Z);
    let line = format!(
        "LER/window {:.6} over {windows} windows, 5-sigma [{lo:.6}, {hi:.6}]; \
         band [{band_lo:.6}, {band_hi:.6}]",
        errors as f64 / windows.max(1) as f64
    );
    if lo <= band_hi && band_lo <= hi {
        Ok(line)
    } else {
        Err(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(name: &str) -> Vec<Vec<f64>> {
        let path = format!("{}/../results/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("committed result file is present");
        text.lines()
            .skip(1)
            .filter(|line| !line.trim().is_empty())
            .map(|line| {
                line.split(',')
                    .map(|c| c.trim().parse().expect("numeric cell"))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn embedded_rows_equal_the_committed_results() {
        let table = committed("distance_scaling.csv");
        for (d, p, shots, failures) in DISTANCE_SCALING {
            assert!(
                table.iter().any(|r| r[0] as usize == d
                    && r[1] == p
                    && r[2] as u64 == shots
                    && r[3] as u64 == failures),
                "distance_scaling.csv has no row {d},{p},{shots},{failures}"
            );
        }
        let curve = committed("ler_curve_XL.csv");
        for (per, ler_pf) in LER_CURVE_XL {
            assert!(
                curve.iter().any(|r| r[0] == per && r[3] == ler_pf),
                "ler_curve_XL.csv has no row per={per} ler_pf={ler_pf}"
            );
        }
        // The embedded pair is adjacent in the curve: it brackets 1e-3.
        let pers: Vec<f64> = curve.iter().map(|r| r[0]).collect();
        let i = pers
            .iter()
            .position(|&x| x == LER_CURVE_XL[0].0)
            .expect("row present");
        assert_eq!(pers[i + 1], LER_CURVE_XL[1].0);
    }

    #[test]
    fn checks_accept_the_reference_and_reject_a_broken_engine() {
        assert!(check_surface(13, 0.06, 20000, 409).is_ok());
        assert!(check_surface(13, 0.06, 20000, 4000).is_err());
        assert!(check_surface(5, 0.06, 20000, 409).is_err());
        let (lo, hi) = sc17_band(1e-3).expect("1e-3 is bracketed");
        assert!(lo < 0.0039 && 0.0039 < hi);
        assert!(check_sc17(1e-3, 1_000_000, 3_900).is_ok());
        assert!(check_sc17(1e-3, 1_000_000, 0).is_err());
        assert!(check_sc17(1e-3, 1_000_000, 50_000).is_err());
    }
}
