//! Synthetic chronic-kidney-disease lab time series for the DPM pipeline.
//!
//! Each patient contributes one year of periodic visits with eGFR/creatinine
//! style measurements (some missing). The progression label reflects the
//! latent decline-rate regime, which also shapes the measurement
//! trajectories — so the HMM de-biasing stage has real temporal structure to
//! model.

use mlcask_pipeline::artifact::{Cell, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Column layout of the visit table.
pub(crate) fn columns() -> Vec<String> {
    vec![
        "patient_id".to_string(),
        "visit".to_string(),
        "egfr".to_string(),
        "creatinine".to_string(),
        "potassium".to_string(),
        "progressed".to_string(),
    ]
}

/// Generates `n_patients × visits` rows of longitudinal labs.
pub(crate) fn generate(n_patients: usize, visits: usize, missing_rate: f64, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n_patients * visits);
    for pid in 0..n_patients {
        // Latent regime: stable (slow decline) vs progressive (fast).
        let progressive = rng.gen_bool(0.45);
        let decline = if progressive {
            rng.gen_range(1.5f32..3.0)
        } else {
            rng.gen_range(0.0f32..0.6)
        };
        let mut egfr = rng.gen_range(55.0f32..95.0);
        for v in 0..visits {
            egfr = (egfr - decline + rng.gen_range(-1.5f32..1.5)).clamp(5.0, 120.0);
            let creat = (80.0 / egfr.max(5.0)) * rng.gen_range(0.9f32..1.1);
            let potassium = 4.0 + (60.0 - egfr).max(0.0) / 40.0 + rng.gen_range(-0.3f32..0.3);
            let mk = |v: f32, rng: &mut StdRng| {
                if rng.gen_bool(missing_rate) {
                    Cell::Null
                } else {
                    Cell::F(v)
                }
            };
            let egfr_cell = mk(egfr, &mut rng);
            let creat_cell = mk(creat, &mut rng);
            let pot_cell = mk(potassium, &mut rng);
            rows.push(vec![
                Cell::I(pid as i64),
                Cell::I(v as i64),
                egfr_cell,
                creat_cell,
                pot_cell,
                Cell::I(progressive as i64),
            ]);
        }
    }
    Table::new(columns(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let t = generate(20, 12, 0.05, 11);
        assert_eq!(t.rows.len(), 20 * 12);
        assert_eq!(t.columns.len(), 6);
        assert_eq!(t, generate(20, 12, 0.05, 11));
    }

    #[test]
    fn progressive_patients_decline_faster() {
        let t = generate(60, 12, 0.0, 5);
        let egfr_col = t.col_index("egfr").unwrap();
        let label_col = t.col_index("progressed").unwrap();
        let pid_col = t.col_index("patient_id").unwrap();
        // Mean first-to-last eGFR drop per class.
        let mut drops = [0.0f64; 2];
        let mut counts = [0.0f64; 2];
        for pid in 0..60i64 {
            let patient_rows: Vec<_> = t
                .rows
                .iter()
                .filter(|r| matches!(r[pid_col], Cell::I(p) if p == pid))
                .collect();
            let label = match patient_rows[0][label_col] {
                Cell::I(v) => v as usize,
                _ => unreachable!(),
            };
            let first = patient_rows.first().unwrap()[egfr_col].as_f32().unwrap();
            let last = patient_rows.last().unwrap()[egfr_col].as_f32().unwrap();
            drops[label] += (first - last) as f64;
            counts[label] += 1.0;
        }
        assert!(counts[0] > 5.0 && counts[1] > 5.0);
        assert!(
            drops[1] / counts[1] > drops[0] / counts[0] + 3.0,
            "progressive class should decline much faster"
        );
    }

    #[test]
    fn missing_rate_respected() {
        let t = generate(30, 10, 0.2, 9);
        let frac = t.null_count() as f64 / (30.0 * 10.0 * 3.0);
        assert!((0.12..0.28).contains(&frac), "null fraction {frac}");
    }
}
