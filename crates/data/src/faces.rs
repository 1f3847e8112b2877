//! ORL-like synthetic face corpus and interval construction
//! (Sections 6.1.2 / 6.4 and supplementary F.1).
//!
//! The ORL data set (40 individuals × 10 grayscale images, 32 × 32 pixels)
//! cannot be redistributed, so this module generates a synthetic corpus
//! with the same shape and, crucially, the same *class structure*: every
//! individual has a smooth per-person "face template" (a mixture of 2-D
//! Gaussian blobs with person-specific positions/intensities) and each of
//! the 10 images is a perturbed rendering of that template (blob jitter +
//! pixel noise), so within-person similarity is much higher than
//! between-person similarity — which is what the classification and
//! clustering experiments exercise.
//!
//! The interval construction follows supplementary F.1 exactly: for each
//! pixel, the standard deviation of the pixel values in the surrounding
//! `(2r+1)²` window is computed and the interval is
//! `[x − α·std, x + α·std]`.

use rand::Rng;

use ivmf_interval::IntervalMatrix;
use ivmf_linalg::{norms, Matrix};

/// Configuration of the synthetic face corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaceCorpusConfig {
    /// Number of individuals (ORL: 40).
    pub individuals: usize,
    /// Images per individual (ORL: 10).
    pub images_per_individual: usize,
    /// Image side length in pixels (ORL experiments use 32 and 64).
    pub resolution: usize,
    /// Number of Gaussian blobs composing a face template.
    pub blobs_per_face: usize,
    /// Standard deviation of per-image blob-position jitter (in pixels).
    pub jitter: f64,
    /// Standard deviation of additive pixel noise.
    pub pixel_noise: f64,
}

impl FaceCorpusConfig {
    /// The ORL-like default: 40 individuals × 10 images at 32 × 32.
    pub fn orl_like() -> Self {
        FaceCorpusConfig {
            individuals: 40,
            images_per_individual: 10,
            resolution: 32,
            blobs_per_face: 6,
            jitter: 1.0,
            pixel_noise: 0.02,
        }
    }

    /// A reduced corpus for fast tests and examples.
    pub fn small() -> Self {
        FaceCorpusConfig {
            individuals: 8,
            images_per_individual: 6,
            resolution: 16,
            blobs_per_face: 4,
            jitter: 0.8,
            pixel_noise: 0.02,
        }
    }

    /// Sets the image resolution (e.g. 64 for the Table 3 experiment).
    pub fn with_resolution(mut self, resolution: usize) -> Self {
        self.resolution = resolution;
        self
    }

    /// Sets the number of individuals.
    pub fn with_individuals(mut self, individuals: usize) -> Self {
        self.individuals = individuals;
        self
    }

    /// Sets the number of images per individual.
    pub fn with_images_per_individual(mut self, images: usize) -> Self {
        self.images_per_individual = images;
        self
    }

    /// Total number of images in the corpus.
    pub fn total_images(&self) -> usize {
        self.individuals * self.images_per_individual
    }

    /// Number of pixels (= feature columns) per image.
    pub fn pixels(&self) -> usize {
        self.resolution * self.resolution
    }
}

/// A face corpus: one image per row, pixel intensities in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct FaceDataset {
    /// `(individuals × images) x pixels` data matrix.
    pub data: Matrix,
    /// Class label (individual id) of each row.
    pub labels: Vec<usize>,
    /// Image side length in pixels.
    pub resolution: usize,
}

impl FaceDataset {
    /// Number of images.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of distinct individuals.
    pub fn num_classes(&self) -> usize {
        self.labels.iter().copied().max().map_or(0, |m| m + 1)
    }
}

/// One Gaussian blob of a face template.
#[derive(Debug, Clone, Copy)]
struct Blob {
    x: f64,
    y: f64,
    sigma: f64,
    amplitude: f64,
}

/// Generates the synthetic face corpus.
pub fn generate_faces<R: Rng + ?Sized>(config: &FaceCorpusConfig, rng: &mut R) -> FaceDataset {
    let res = config.resolution;
    let pixels = config.pixels();
    let mut data = Matrix::zeros(config.total_images(), pixels);
    let mut labels = Vec::with_capacity(config.total_images());

    for person in 0..config.individuals {
        // Person-specific template blobs.
        let template: Vec<Blob> = (0..config.blobs_per_face)
            .map(|_| Blob {
                x: rng.gen_range(0.15..0.85) * res as f64,
                y: rng.gen_range(0.15..0.85) * res as f64,
                sigma: rng.gen_range(0.08..0.22) * res as f64,
                amplitude: rng.gen_range(0.4..1.0),
            })
            .collect();

        for image in 0..config.images_per_individual {
            let row = person * config.images_per_individual + image;
            labels.push(person);
            // Jittered copy of the template for this particular image.
            let blobs: Vec<Blob> = template
                .iter()
                .map(|b| Blob {
                    x: b.x + config.jitter * standard_normal(rng),
                    y: b.y + config.jitter * standard_normal(rng),
                    sigma: b.sigma,
                    amplitude: b.amplitude * (1.0 + 0.05 * standard_normal(rng)),
                })
                .collect();
            for py in 0..res {
                for px in 0..res {
                    let mut value = 0.0;
                    for b in &blobs {
                        let dx = px as f64 - b.x;
                        let dy = py as f64 - b.y;
                        value +=
                            b.amplitude * (-(dx * dx + dy * dy) / (2.0 * b.sigma * b.sigma)).exp();
                    }
                    value += config.pixel_noise * standard_normal(rng);
                    data[(row, py * res + px)] = value.clamp(0.0, 1.5);
                }
            }
        }
    }

    FaceDataset {
        data,
        labels,
        resolution: res,
    }
}

/// Builds the interval-valued face matrix of supplementary F.1: the interval
/// of pixel `(x, y)` in image `i` is `[v − α·std, v + α·std]` where `std` is
/// the standard deviation of the pixels of image `i` within the square
/// window of radius `radius` centred at `(x, y)`.
///
/// Intervals are clamped below at 0 (pixel intensities are non-negative),
/// so the result can also feed the non-negative baselines (NMF / I-NMF).
pub fn interval_faces(dataset: &FaceDataset, radius: usize, alpha: f64) -> IntervalMatrix {
    let res = dataset.resolution;
    let n = dataset.len();
    let mut lo = Matrix::zeros(n, res * res);
    let mut hi = Matrix::zeros(n, res * res);
    let mut window = Vec::with_capacity((2 * radius + 1) * (2 * radius + 1));

    for i in 0..n {
        let row = dataset.data.row(i);
        for py in 0..res {
            for px in 0..res {
                window.clear();
                let y_min = py.saturating_sub(radius);
                let y_max = (py + radius).min(res - 1);
                let x_min = px.saturating_sub(radius);
                let x_max = (px + radius).min(res - 1);
                for wy in y_min..=y_max {
                    for wx in x_min..=x_max {
                        window.push(row[wy * res + wx]);
                    }
                }
                let std = norms::std_dev(&window);
                let v = row[py * res + px];
                let delta = alpha * std;
                lo[(i, py * res + px)] = (v - delta).max(0.0);
                hi[(i, py * res + px)] = v + delta;
            }
        }
    }
    IntervalMatrix::from_bounds(lo, hi).expect("bounds share a shape")
}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivmf_linalg::norms::euclidean_distance;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn corpus_has_requested_shape_and_labels() {
        let mut rng = SmallRng::seed_from_u64(1);
        let config = FaceCorpusConfig::small();
        let d = generate_faces(&config, &mut rng);
        assert_eq!(d.len(), config.total_images());
        assert_eq!(d.data.shape(), (config.total_images(), config.pixels()));
        assert_eq!(d.num_classes(), config.individuals);
        assert!(!d.is_empty());
        // Labels are grouped per individual.
        assert_eq!(d.labels[0], 0);
        assert_eq!(*d.labels.last().unwrap(), config.individuals - 1);
    }

    #[test]
    fn within_person_distance_is_smaller_than_between_person() {
        let mut rng = SmallRng::seed_from_u64(2);
        let config = FaceCorpusConfig::small();
        let d = generate_faces(&config, &mut rng);
        let per = config.images_per_individual;
        // Average distance between images 0 and 1 of the same person vs
        // images of persons p and p+1.
        let mut within = 0.0;
        let mut between = 0.0;
        let mut count = 0.0;
        for p in 0..config.individuals - 1 {
            within += euclidean_distance(d.data.row(p * per), d.data.row(p * per + 1));
            between += euclidean_distance(d.data.row(p * per), d.data.row((p + 1) * per));
            count += 1.0;
        }
        assert!(
            within / count < 0.6 * between / count,
            "within {within} not clearly smaller than between {between}"
        );
    }

    #[test]
    fn pixel_values_are_bounded() {
        let mut rng = SmallRng::seed_from_u64(3);
        let d = generate_faces(&FaceCorpusConfig::small(), &mut rng);
        assert!(d.data.as_slice().iter().all(|&x| (0.0..=1.5).contains(&x)));
    }

    #[test]
    fn interval_faces_contain_the_original_pixels() {
        let mut rng = SmallRng::seed_from_u64(4);
        let d = generate_faces(&FaceCorpusConfig::small(), &mut rng);
        let m = interval_faces(&d, 1, 1.0);
        assert_eq!(m.shape(), d.data.shape());
        assert!(m.is_proper());
        // Each original pixel may have been clamped from below at 0, but the
        // original value itself is non-negative so containment holds.
        assert!(m.contains_matrix(&d.data, 1e-9));
    }

    #[test]
    fn larger_alpha_gives_wider_intervals() {
        let mut rng = SmallRng::seed_from_u64(5);
        let d = generate_faces(&FaceCorpusConfig::small(), &mut rng);
        let narrow = interval_faces(&d, 1, 0.5).mean_span();
        let wide = interval_faces(&d, 1, 2.0).mean_span();
        assert!(wide > narrow);
    }

    #[test]
    fn flat_region_produces_degenerate_intervals() {
        // A constant image has zero neighbourhood std everywhere.
        let d = FaceDataset {
            data: Matrix::filled(1, 16, 0.5),
            labels: vec![0],
            resolution: 4,
        };
        let m = interval_faces(&d, 1, 1.0);
        assert!(m.is_scalar());
    }

    #[test]
    fn resolution_override() {
        let c = FaceCorpusConfig::orl_like().with_resolution(64);
        assert_eq!(c.pixels(), 4096);
        let c2 = FaceCorpusConfig::orl_like()
            .with_individuals(10)
            .with_images_per_individual(3);
        assert_eq!(c2.total_images(), 30);
    }
}
