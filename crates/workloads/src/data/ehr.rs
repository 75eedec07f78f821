//! Synthetic hospital-admission records for the Readmission pipeline.
//!
//! Mimics the NUHS setting (§II): inpatient episodes with demographics,
//! diagnosis codes (some missing — the cleansing stage fills them), lab
//! results, and a 30-day readmission label correlated with the features.

use mlcask_pipeline::artifact::{Cell, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Diagnosis code pool (ICD-10-ish).
pub(crate) const DX_CODES: [&str; 8] = ["I10", "E11", "N18", "J44", "I50", "C34", "K70", "F32"];

/// Number of lab columns generated.
pub(crate) const N_LABS: usize = 6;

/// Column layout of the admissions table.
pub(crate) fn columns() -> Vec<String> {
    let mut cols = vec![
        "patient_id".to_string(),
        "age".to_string(),
        "gender".to_string(),
        "dx_code".to_string(),
        "num_procedures".to_string(),
        "los_days".to_string(),
    ];
    for i in 0..N_LABS {
        cols.push(format!("lab_{i}"));
    }
    cols.push("readmitted".to_string());
    cols
}

/// Generates `n` admission episodes. `missing_rate` controls the fraction
/// of null diagnosis codes and lab values (the cleansing stage's work).
pub(crate) fn generate(n: usize, missing_rate: f64, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    for pid in 0..n {
        let age = rng.gen_range(18.0f32..95.0);
        let gender = if rng.gen_bool(0.5) { "M" } else { "F" };
        let dx_idx = rng.gen_range(0..DX_CODES.len());
        let n_procs = rng.gen_range(0i64..6);
        // Risk score drives both labs and the label.
        let risk =
            (age - 18.0) / 77.0 * 0.4 + dx_idx as f32 / 8.0 * 0.3 + n_procs as f32 / 6.0 * 0.3;
        let los = 1.0 + risk * 20.0 + rng.gen_range(-0.5f32..0.5);
        let mut row = vec![
            Cell::I(pid as i64),
            Cell::F(age),
            Cell::S(gender.to_string()),
            if rng.gen_bool(missing_rate) {
                Cell::Null
            } else {
                Cell::S(DX_CODES[dx_idx].to_string())
            },
            Cell::I(n_procs),
            Cell::F(los.max(1.0)),
        ];
        for lab in 0..N_LABS {
            if rng.gen_bool(missing_rate) {
                row.push(Cell::Null);
            } else {
                let base = (lab as f32 + 1.0) * 10.0;
                row.push(Cell::F(
                    base * (1.0 + 2.0 * risk) + rng.gen_range(-1.0f32..1.0),
                ));
            }
        }
        // Sharpen the risk-label link so model quality is measurable.
        let p_readmit = (0.02 + (risk as f64).powf(1.5) * 1.1).min(0.97);
        row.push(Cell::I(if rng.gen_bool(p_readmit) { 1 } else { 0 }));
        rows.push(row);
    }
    Table::new(columns(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let t = generate(100, 0.1, 7);
        assert_eq!(t.rows.len(), 100);
        assert_eq!(t.columns.len(), 6 + N_LABS + 1);
        let t2 = generate(100, 0.1, 7);
        assert_eq!(t, t2);
        assert_ne!(t, generate(100, 0.1, 8));
    }

    #[test]
    fn missing_rate_controls_nulls() {
        let none = generate(200, 0.0, 1);
        assert_eq!(none.null_count(), 0);
        let some = generate(200, 0.3, 1);
        // dx + labs eligible: 7 cells/row; expect roughly 30%.
        let frac = some.null_count() as f64 / (200.0 * 7.0);
        assert!((0.2..0.4).contains(&frac), "null fraction {frac}");
    }

    #[test]
    fn labels_are_binary_and_correlated() {
        let t = generate(500, 0.0, 3);
        let label_col = t.col_index("readmitted").unwrap();
        let age_col = t.col_index("age").unwrap();
        let mut age_pos = 0.0;
        let mut n_pos = 0.0;
        let mut age_neg = 0.0;
        let mut n_neg = 0.0;
        for r in &t.rows {
            let y = match r[label_col] {
                Cell::I(v) => v,
                _ => panic!("label must be an integer"),
            };
            assert!(y == 0 || y == 1);
            let age = r[age_col].as_f32().unwrap() as f64;
            if y == 1 {
                age_pos += age;
                n_pos += 1.0;
            } else {
                age_neg += age;
                n_neg += 1.0;
            }
        }
        assert!(n_pos > 20.0 && n_neg > 20.0, "both classes present");
        assert!(
            age_pos / n_pos > age_neg / n_neg,
            "older patients readmit more"
        );
    }
}
