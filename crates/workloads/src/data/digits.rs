//! Synthetic digit-like images for the Autolearn pipeline.
//!
//! Each class is a deterministic stroke template (horizontal/vertical bars,
//! diagonals, rings) rendered at 16×16 with per-sample jitter and noise —
//! enough shape variety that Zernike moments separate the classes.

use mlcask_ml::zernike::Image;
use mlcask_pipeline::artifact::ImageSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Image side length.
pub(crate) const SIDE: usize = 16;

/// Number of digit classes generated.
pub(crate) const N_CLASSES: usize = 6;

fn render_template(class: usize, jitter: (i32, i32), rng: &mut StdRng, noise: f32) -> Image {
    let mut px = vec![0.0f32; SIDE * SIDE];
    let s = SIDE as i32;
    let set = |x: i32, y: i32, px: &mut Vec<f32>| {
        let x = x + jitter.0;
        let y = y + jitter.1;
        if (0..s).contains(&x) && (0..s).contains(&y) {
            px[(y * s + x) as usize] = 1.0;
        }
    };
    match class {
        // 0: ring
        0 => {
            let c = (s - 1) as f32 / 2.0;
            for y in 0..s {
                for x in 0..s {
                    let d = ((x as f32 - c).powi(2) + (y as f32 - c).powi(2)).sqrt();
                    if (d - 5.0).abs() < 1.0 {
                        set(x, y, &mut px);
                    }
                }
            }
        }
        // 1: vertical bar
        1 => {
            for y in 2..s - 2 {
                set(s / 2, y, &mut px);
                set(s / 2 - 1, y, &mut px);
            }
        }
        // 2: horizontal bars top/middle/bottom
        2 => {
            for x in 3..s - 3 {
                set(x, 3, &mut px);
                set(x, s / 2, &mut px);
                set(x, s - 4, &mut px);
            }
        }
        // 3: main diagonal
        3 => {
            for i in 2..s - 2 {
                set(i, i, &mut px);
                set(i + 1, i, &mut px);
            }
        }
        // 4: cross
        4 => {
            for i in 2..s - 2 {
                set(i, s / 2, &mut px);
                set(s / 2, i, &mut px);
            }
        }
        // 5: two vertical bars
        _ => {
            for y in 2..s - 2 {
                set(4, y, &mut px);
                set(s - 5, y, &mut px);
            }
        }
    }
    // Pixel noise.
    for p in px.iter_mut() {
        if rng.gen_bool(noise as f64) {
            *p = 1.0 - *p;
        }
    }
    Image::new(SIDE, px)
}

/// Generates `n` labelled images with the given pixel-flip noise rate.
pub(crate) fn generate(n: usize, noise: f32, seed: u64) -> ImageSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut images = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % N_CLASSES;
        let jitter = (rng.gen_range(-2i32..=2), rng.gen_range(-2i32..=2));
        images.push(render_template(class, jitter, &mut rng, noise));
        labels.push(class);
    }
    ImageSet {
        images,
        labels,
        n_classes: N_CLASSES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcask_ml::zernike::zernike_moments;

    #[test]
    fn shape_and_determinism() {
        let s = generate(30, 0.01, 2);
        assert_eq!(s.images.len(), 30);
        assert!(s.images.iter().all(|i| i.side == SIDE));
        assert_eq!(s.labels, generate(30, 0.01, 2).labels);
        assert_eq!(s.images[0].pixels, generate(30, 0.01, 2).images[0].pixels);
    }

    #[test]
    fn classes_cycle() {
        let s = generate(12, 0.0, 1);
        assert_eq!(s.labels, vec![0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn templates_have_distinct_moments() {
        let s = generate(N_CLASSES, 0.0, 3);
        let moments: Vec<Vec<f32>> = s.images.iter().map(|i| zernike_moments(i, 6)).collect();
        for a in 0..N_CLASSES {
            for b in (a + 1)..N_CLASSES {
                let dist: f32 = moments[a]
                    .iter()
                    .zip(&moments[b])
                    .map(|(x, y)| (x - y).abs())
                    .sum();
                assert!(dist > 0.02, "classes {a} and {b} indistinguishable: {dist}");
            }
        }
    }

    #[test]
    fn noise_flips_pixels() {
        let clean = generate(6, 0.0, 4);
        let noisy = generate(6, 0.3, 4);
        let diff: usize = clean.images[0]
            .pixels
            .iter()
            .zip(&noisy.images[0].pixels)
            .filter(|(a, b)| a != b)
            .count();
        assert!(diff > 20, "noise should flip a visible number of pixels");
    }
}
