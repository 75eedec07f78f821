//! Zernike moment features for image classification.
//!
//! The Autolearn pipeline classifies digit images "using Zernike moments as
//! features" (§VII-A). Zernike moments are the projections of an image onto
//! an orthogonal basis of complex polynomials over the unit disk; their
//! magnitudes are rotation-invariant shape descriptors. This module
//! implements the radial polynomials exactly (factorial form) and computes
//! moment magnitudes up to a configurable order.

use serde::{Deserialize, Serialize};

/// A grayscale square image with pixels in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    /// Side length in pixels.
    pub side: usize,
    /// Row-major pixels, length `side * side`.
    pub pixels: Vec<f32>,
}

impl Image {
    /// Creates an image, validating the buffer length.
    pub fn new(side: usize, pixels: Vec<f32>) -> Image {
        assert_eq!(pixels.len(), side * side, "pixel buffer length mismatch");
        Image { side, pixels }
    }

    /// Pixel accessor.
    #[inline]
    pub(crate) fn get(&self, x: usize, y: usize) -> f32 {
        self.pixels[y * self.side + x]
    }
}

/// Computes `n!` as f64 (inputs here are small; exact up to 20!).
fn factorial(n: u32) -> f64 {
    (1..=n as u64).map(|v| v as f64).product::<f64>().max(1.0)
}

/// Zernike radial polynomial `R_{n}^{m}(rho)` (requires `n >= m`,
/// `n - m` even).
pub(crate) fn radial_polynomial(n: u32, m: u32, rho: f64) -> f64 {
    debug_assert!(n >= m && (n - m).is_multiple_of(2));
    let mut sum = 0.0;
    for s in 0..=((n - m) / 2) {
        let num = if s % 2 == 0 { 1.0 } else { -1.0 } * factorial(n - s);
        let den = factorial(s) * factorial((n + m) / 2 - s) * factorial((n - m) / 2 - s);
        sum += num / den * rho.powi((n - 2 * s) as i32);
    }
    sum
}

/// All (n, m) index pairs with `n <= max_order`, `|m| <= n`, `n - m` even,
/// `m >= 0` (magnitudes are symmetric in the sign of m).
pub(crate) fn moment_indices(max_order: u32) -> Vec<(u32, u32)> {
    let mut idx = Vec::new();
    for n in 0..=max_order {
        for m in (n % 2..=n).step_by(2) {
            idx.push((n, m));
        }
    }
    idx
}

/// Computes the magnitudes of the Zernike moments of `img` up to
/// `max_order`. The image is mapped onto the unit disk; pixels outside the
/// disk are ignored.
pub fn zernike_moments(img: &Image, max_order: u32) -> Vec<f32> {
    let side = img.side as f64;
    let centre = (side - 1.0) / 2.0;
    let radius = side / 2.0;
    let indices = moment_indices(max_order);
    // Accumulate complex projections.
    let mut re = vec![0.0f64; indices.len()];
    let mut im = vec![0.0f64; indices.len()];
    let mut norm = 0.0f64;
    for y in 0..img.side {
        for x in 0..img.side {
            let dx = (x as f64 - centre) / radius;
            let dy = (y as f64 - centre) / radius;
            let rho = (dx * dx + dy * dy).sqrt();
            if rho > 1.0 {
                continue;
            }
            let theta = dy.atan2(dx);
            let p = img.get(x, y) as f64;
            if p == 0.0 {
                continue;
            }
            norm += p;
            for (k, &(n, m)) in indices.iter().enumerate() {
                let r = radial_polynomial(n, m, rho);
                let angle = m as f64 * theta;
                re[k] += p * r * angle.cos();
                im[k] -= p * r * angle.sin();
            }
        }
    }
    let norm = norm.max(1e-12);
    indices
        .iter()
        .enumerate()
        .map(|(k, &(n, _))| {
            let scale = (n as f64 + 1.0) / std::f64::consts::PI;
            let mag = (re[k] * re[k] + im[k] * im[k]).sqrt() * scale / norm;
            mag as f32
        })
        .collect()
}

/// Number of features produced for a given order.
pub fn feature_count(max_order: u32) -> usize {
    moment_indices(max_order).len()
}

/// Deterministic work estimate: pixels × moment count.
pub fn work_units(n_images: usize, side: usize, max_order: u32) -> u64 {
    (n_images as u64) * (side as u64) * (side as u64) * (feature_count(max_order) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk_image(side: usize) -> Image {
        let centre = (side as f32 - 1.0) / 2.0;
        let radius = side as f32 / 2.0;
        let pixels = (0..side * side)
            .map(|i| {
                let x = (i % side) as f32 - centre;
                let y = (i / side) as f32 - centre;
                if (x * x + y * y).sqrt() <= radius * 0.8 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        Image::new(side, pixels)
    }

    fn rotate90(img: &Image) -> Image {
        let s = img.side;
        let mut out = vec![0.0; s * s];
        for y in 0..s {
            for x in 0..s {
                out[x * s + (s - 1 - y)] = img.get(x, y);
            }
        }
        Image::new(s, out)
    }

    #[test]
    fn radial_polynomial_known_values() {
        // R_0^0 = 1, R_1^1 = rho, R_2^0 = 2 rho^2 - 1, R_2^2 = rho^2.
        assert!((radial_polynomial(0, 0, 0.5) - 1.0).abs() < 1e-12);
        assert!((radial_polynomial(1, 1, 0.3) - 0.3).abs() < 1e-12);
        assert!((radial_polynomial(2, 0, 0.5) - (2.0 * 0.25 - 1.0)).abs() < 1e-12);
        assert!((radial_polynomial(2, 2, 0.7) - 0.49).abs() < 1e-12);
        // R_4^0 = 6 rho^4 - 6 rho^2 + 1.
        let rho: f64 = 0.6;
        let expect = 6.0 * rho.powi(4) - 6.0 * rho * rho + 1.0;
        assert!((radial_polynomial(4, 0, rho) - expect).abs() < 1e-12);
    }

    #[test]
    fn radial_polynomial_at_one_is_one() {
        // R_n^m(1) = 1 for all valid (n, m).
        for (n, m) in moment_indices(6) {
            let v = radial_polynomial(n, m, 1.0);
            assert!((v - 1.0).abs() < 1e-9, "R_{n}^{m}(1) = {v}");
        }
    }

    #[test]
    fn moment_indices_structure() {
        let idx = moment_indices(4);
        // Orders 0..4: (0,0),(1,1),(2,0),(2,2),(3,1),(3,3),(4,0),(4,2),(4,4)
        assert_eq!(idx.len(), 9);
        assert!(idx.contains(&(3, 1)));
        assert!(!idx.contains(&(3, 2)), "n - m must be even");
        assert_eq!(feature_count(4), 9);
    }

    #[test]
    fn rotation_invariance() {
        // An L-shaped pattern: moments' magnitudes must survive 90° rotation.
        let side = 16;
        let mut pixels = vec![0.0f32; side * side];
        for y in 4..12 {
            pixels[y * side + 4] = 1.0;
        }
        for x in 4..10 {
            pixels[11 * side + x] = 1.0;
        }
        let img = Image::new(side, pixels);
        let rot = rotate90(&img);
        let a = zernike_moments(&img, 6);
        let b = zernike_moments(&rot, 6);
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() < 0.02,
                "moment {i} not rotation invariant: {x} vs {y}"
            );
        }
    }

    #[test]
    fn distinguishes_shapes() {
        let disk = zernike_moments(&disk_image(16), 6);
        let mut half = disk_image(16);
        for y in 0..16 {
            for x in 8..16 {
                half.pixels[y * 16 + x] = 0.0;
            }
        }
        let half_m = zernike_moments(&half, 6);
        let dist: f32 = disk
            .iter()
            .zip(half_m.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(dist > 0.05, "shapes should have different moments: {dist}");
    }

    #[test]
    fn empty_image_finite() {
        let img = Image::new(8, vec![0.0; 64]);
        let m = zernike_moments(&img, 4);
        assert!(m.iter().all(|v| v.is_finite()));
        assert!(m.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "pixel buffer length mismatch")]
    fn image_checks_buffer() {
        Image::new(4, vec![0.0; 15]);
    }

    #[test]
    fn work_units_scale_with_order() {
        assert!(work_units(10, 16, 8) > work_units(10, 16, 4));
    }
}
