//! Rating data generators (Section 6.1.3 and supplementary F.2).
//!
//! Three families of rating data are used by the paper:
//!
//! * **MovieLens-100K** — 943 users × 1682 movies × 19 genres, 100K ratings
//!   on a 1–5 scale. Used both for reconstruction (user–genre interval
//!   matrix: the *range* of ratings a user gave to movies of a genre) and
//!   for collaborative filtering (user–movie interval matrix built from the
//!   per-user/per-movie rating spread, supplementary F.2).
//! * **Ciao / Epinions** — user–category rating-range matrices with the
//!   matrix/interval density the paper reports.
//!
//! The real data sets are not redistributable, so [`movielens_like`] and
//! [`category_ratings_like`] generate synthetic data with matching shape,
//! sparsity, scale and latent low-rank structure (users and items have
//! latent genre affinities, so the rating matrices genuinely have the
//! low-rank structure the factorization algorithms exploit).

use rand::Rng;

use ivmf_interval::{CsrIntervalShard, CsrShardedIntervalMatrix, IntervalMatrix};
use ivmf_linalg::{norms, CsrShard, Matrix};

/// One observed rating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// User index.
    pub user: usize,
    /// Item (movie) index.
    pub item: usize,
    /// Rating value (1–5 scale).
    pub value: f64,
}

/// A synthetic MovieLens-like data set.
#[derive(Debug, Clone)]
pub struct RatingDataset {
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Number of genres.
    pub n_genres: usize,
    /// Observed ratings.
    pub ratings: Vec<Rating>,
    /// Genres assigned to each item (1–3 genres per item).
    pub item_genres: Vec<Vec<usize>>,
}

impl RatingDataset {
    /// Number of observed ratings.
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// True when no ratings are present.
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// Density of the user × item rating matrix.
    pub fn density(&self) -> f64 {
        self.ratings.len() as f64 / (self.n_users * self.n_items) as f64
    }
}

/// Configuration of the MovieLens-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovieLensConfig {
    /// Number of users (MovieLens-100K: 943).
    pub n_users: usize,
    /// Number of items (MovieLens-100K: 1682).
    pub n_items: usize,
    /// Number of genres (MovieLens-100K: 19).
    pub n_genres: usize,
    /// Number of observed ratings to generate (MovieLens-100K: 100_000).
    pub n_ratings: usize,
    /// Standard deviation of the rating noise.
    pub noise: f64,
}

impl MovieLensConfig {
    /// The full MovieLens-100K shape.
    pub fn full() -> Self {
        MovieLensConfig {
            n_users: 943,
            n_items: 1682,
            n_genres: 19,
            n_ratings: 100_000,
            noise: 0.35,
        }
    }

    /// A scaled-down configuration for tests and quick experiments; keeps
    /// the 19-genre structure and the ~6% matrix density of the original.
    pub fn small() -> Self {
        MovieLensConfig {
            n_users: 120,
            n_items: 220,
            n_genres: 19,
            n_ratings: 1_700,
            noise: 0.35,
        }
    }

    /// Scales users/items/ratings by the given factor (genres untouched).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.n_users = ((self.n_users as f64 * factor).round() as usize).max(10);
        self.n_items = ((self.n_items as f64 * factor).round() as usize).max(10);
        self.n_ratings = ((self.n_ratings as f64 * factor).round() as usize).max(100);
        self
    }
}

/// Generates a MovieLens-like data set with latent genre structure: each
/// user has an affinity vector over genres, each item belongs to 1–3
/// genres, and a rating is the (noisy, clipped, discretized) affinity of
/// the user for the item's genres.
pub fn movielens_like<R: Rng + ?Sized>(config: &MovieLensConfig, rng: &mut R) -> RatingDataset {
    let user_affinity = Matrix::from_fn(config.n_users, config.n_genres, |_, _| {
        rng.gen_range(1.0..5.0)
    });
    let item_genres: Vec<Vec<usize>> = (0..config.n_items)
        .map(|_| {
            let count = rng.gen_range(1..=3usize);
            let mut genres: Vec<usize> = (0..count)
                .map(|_| rng.gen_range(0..config.n_genres))
                .collect();
            genres.sort_unstable();
            genres.dedup();
            genres
        })
        .collect();

    let mut seen = std::collections::HashSet::with_capacity(config.n_ratings * 2);
    let mut ratings = Vec::with_capacity(config.n_ratings);
    let max_attempts = config.n_ratings * 20;
    let mut attempts = 0;
    while ratings.len() < config.n_ratings && attempts < max_attempts {
        attempts += 1;
        let user = rng.gen_range(0..config.n_users);
        let item = rng.gen_range(0..config.n_items);
        if !seen.insert((user, item)) {
            continue;
        }
        let genres = &item_genres[item];
        let affinity = genres
            .iter()
            .map(|&g| user_affinity[(user, g)])
            .sum::<f64>()
            / genres.len() as f64;
        let noisy = affinity + config.noise * standard_normal(rng);
        let value = noisy.round().clamp(1.0, 5.0);
        ratings.push(Rating { user, item, value });
    }

    RatingDataset {
        n_users: config.n_users,
        n_items: config.n_items,
        n_genres: config.n_genres,
        ratings,
        item_genres,
    }
}

/// Builds the user × genre interval matrix used by the reconstruction
/// experiments (supplementary F.2, eq. 4): entry `(u, g)` is the
/// `[min, max]` of the ratings user `u` gave to items of genre `g`, or the
/// zero interval when the user rated no such item.
pub fn user_genre_interval_matrix(dataset: &RatingDataset) -> IntervalMatrix {
    let mut lo = Matrix::zeros(dataset.n_users, dataset.n_genres);
    let mut hi = Matrix::zeros(dataset.n_users, dataset.n_genres);
    let mut seen = vec![vec![false; dataset.n_genres]; dataset.n_users];
    for r in &dataset.ratings {
        for &g in &dataset.item_genres[r.item] {
            if !seen[r.user][g] {
                seen[r.user][g] = true;
                lo[(r.user, g)] = r.value;
                hi[(r.user, g)] = r.value;
            } else {
                if r.value < lo[(r.user, g)] {
                    lo[(r.user, g)] = r.value;
                }
                if r.value > hi[(r.user, g)] {
                    hi[(r.user, g)] = r.value;
                }
            }
        }
    }
    IntervalMatrix::from_bounds(lo, hi).expect("bounds share a shape")
}

/// Builds the user × item interval matrix used by the collaborative
/// filtering experiments (supplementary F.2, eqs. 5–7): for each observed
/// rating `X_ij`, `δ_ij = α · std({ratings by user i} ∪ {ratings of item j})`
/// and the interval is `[X_ij − δ_ij, X_ij + δ_ij]`. Unobserved entries are
/// the zero interval.
///
/// Returns the interval matrix together with the observed coordinates (in
/// the order of `dataset.ratings`), ready to feed the PMF-family trainers.
pub fn cf_interval_matrix(
    dataset: &RatingDataset,
    alpha: f64,
) -> (IntervalMatrix, Vec<(usize, usize)>) {
    let (csr, observed) = cf_interval_csr(dataset, alpha);
    (csr.to_dense(), observed)
}

/// The CSR-native form of [`cf_interval_matrix`]: the interval bounds are
/// computed per observed rating (identical arithmetic, identical bits) and
/// assembled **directly into CSR from the rating triple stream** — no
/// dense `users × items` buffer is ever materialized, so million-user
/// rating matrices build in `O(ratings)` memory. [`cf_interval_matrix`] is
/// now a thin `to_dense()` wrapper over this for small fixtures.
pub fn cf_interval_csr(
    dataset: &RatingDataset,
    alpha: f64,
) -> (CsrIntervalShard, Vec<(usize, usize)>) {
    let mut by_user: Vec<Vec<f64>> = vec![Vec::new(); dataset.n_users];
    let mut by_item: Vec<Vec<f64>> = vec![Vec::new(); dataset.n_items];
    for r in &dataset.ratings {
        by_user[r.user].push(r.value);
        by_item[r.item].push(r.value);
    }

    let mut triplets = Vec::with_capacity(dataset.ratings.len());
    let mut observed = Vec::with_capacity(dataset.ratings.len());
    let mut pool = Vec::new();
    for r in &dataset.ratings {
        pool.clear();
        pool.extend_from_slice(&by_user[r.user]);
        pool.extend_from_slice(&by_item[r.item]);
        let delta = alpha * norms::std_dev(&pool);
        triplets.push((r.user, r.item, (r.value - delta).max(0.0), r.value + delta));
        observed.push((r.user, r.item));
    }
    let csr = CsrIntervalShard::from_triplets(dataset.n_users, dataset.n_items, &triplets)
        .expect("rating datasets hold unique in-range (user, item) pairs");
    (csr, observed)
}

/// [`cf_interval_csr`] cut into row shards of at most `shard_rows` rows —
/// ready for `ivmf_core::Pipeline::new_sharded` / `run_all_sharded`.
pub fn cf_interval_csr_sharded(
    dataset: &RatingDataset,
    alpha: f64,
    shard_rows: usize,
) -> (CsrShardedIntervalMatrix, Vec<(usize, usize)>) {
    let (csr, observed) = cf_interval_csr(dataset, alpha);
    let sharded = CsrShardedIntervalMatrix::from_csr(&csr, shard_rows.max(1))
        .expect("CSR built from a rating dataset is structurally valid");
    (sharded, observed)
}

/// Builds the scalar user × item rating matrix (zero = unobserved) together
/// with the observed coordinates — the input of plain PMF.
pub fn cf_scalar_matrix(dataset: &RatingDataset) -> (Matrix, Vec<(usize, usize)>) {
    let (csr, observed) = cf_scalar_csr(dataset);
    (csr.to_dense(), observed)
}

/// The CSR-native form of [`cf_scalar_matrix`]: the scalar rating matrix
/// assembled directly from the triple stream with no dense intermediate.
pub fn cf_scalar_csr(dataset: &RatingDataset) -> (CsrShard, Vec<(usize, usize)>) {
    let mut triplets = Vec::with_capacity(dataset.ratings.len());
    let mut observed = Vec::with_capacity(dataset.ratings.len());
    for r in &dataset.ratings {
        triplets.push((r.user, r.item, r.value));
        observed.push((r.user, r.item));
    }
    let csr = CsrShard::from_triplets(dataset.n_users, dataset.n_items, &triplets)
        .expect("rating datasets hold unique in-range (user, item) pairs");
    (csr, observed)
}

/// Configuration of the Ciao/Epinions-like user × category range generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryRatingsConfig {
    /// Number of users.
    pub n_users: usize,
    /// Number of item categories.
    pub n_categories: usize,
    /// Fraction of user × category cells that carry a rating range
    /// (the paper's "matrix density": Ciao 0.28, Epinions 0.26).
    pub matrix_density: f64,
    /// Fraction of the non-empty cells that are genuine intervals
    /// (Ciao 0.44, Epinions 0.49).
    pub interval_density: f64,
    /// Mean interval width, in rating units (Ciao ≈ 2.20, Epinions ≈ 2.44,
    /// both out of a 4-unit scale).
    pub mean_interval_width: f64,
}

impl CategoryRatingsConfig {
    /// The Ciao shape (scaled user count; the paper uses 7K users and 28
    /// categories — pass the real count if you want the full size).
    pub fn ciao_like(n_users: usize) -> Self {
        CategoryRatingsConfig {
            n_users,
            n_categories: 28,
            matrix_density: 0.28,
            interval_density: 0.44,
            mean_interval_width: 2.20,
        }
    }

    /// The Epinions shape (22K users and 27 categories in the paper).
    pub fn epinions_like(n_users: usize) -> Self {
        CategoryRatingsConfig {
            n_users,
            n_categories: 27,
            matrix_density: 0.26,
            interval_density: 0.49,
            mean_interval_width: 2.44,
        }
    }
}

/// Generates a Ciao/Epinions-like user × category interval matrix: each
/// populated cell holds the range of ratings the user gave to items of the
/// category (on the 1–5 scale).
pub fn category_ratings_like<R: Rng + ?Sized>(
    config: &CategoryRatingsConfig,
    rng: &mut R,
) -> IntervalMatrix {
    let mut lo = Matrix::zeros(config.n_users, config.n_categories);
    let mut hi = Matrix::zeros(config.n_users, config.n_categories);
    for i in 0..config.n_users {
        for j in 0..config.n_categories {
            if rng.gen::<f64>() >= config.matrix_density {
                continue;
            }
            let base = rng.gen_range(1.0..=5.0_f64).round().clamp(1.0, 5.0);
            if rng.gen::<f64>() < config.interval_density {
                // Width drawn uniformly in [0, 2 * mean_width], clamped to
                // the rating scale; degenerate draws are widened by one
                // rating step so the cell is a genuine range (as in the real
                // data, where an "interval" cell means the user gave at
                // least two distinct ratings in the category).
                let width = rng.gen_range(0.0..(2.0 * config.mean_interval_width));
                let mut l = (base - width / 2.0).clamp(1.0, 5.0).round();
                let mut h = (base + width / 2.0).clamp(1.0, 5.0).round();
                if l > h {
                    std::mem::swap(&mut l, &mut h);
                }
                if l == h {
                    if h < 5.0 {
                        h += 1.0;
                    } else {
                        l -= 1.0;
                    }
                }
                lo[(i, j)] = l;
                hi[(i, j)] = h;
            } else {
                lo[(i, j)] = base;
                hi[(i, j)] = base;
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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_dataset(seed: u64) -> RatingDataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        movielens_like(&MovieLensConfig::small(), &mut rng)
    }

    #[test]
    fn movielens_like_respects_configuration() {
        let d = small_dataset(1);
        let c = MovieLensConfig::small();
        assert_eq!(d.n_users, c.n_users);
        assert_eq!(d.n_items, c.n_items);
        assert_eq!(d.n_genres, 19);
        assert_eq!(d.len(), c.n_ratings);
        assert!(!d.is_empty());
        assert!(d.ratings.iter().all(|r| (1.0..=5.0).contains(&r.value)));
        assert!(d
            .ratings
            .iter()
            .all(|r| r.user < d.n_users && r.item < d.n_items));
        assert!(d.item_genres.iter().all(|g| !g.is_empty() && g.len() <= 3));
        // Density roughly matches MovieLens-100K (~6%).
        assert!(
            (d.density() - 0.064).abs() < 0.03,
            "density {}",
            d.density()
        );
    }

    #[test]
    fn ratings_are_unique_user_item_pairs() {
        let d = small_dataset(2);
        let mut seen = std::collections::HashSet::new();
        for r in &d.ratings {
            assert!(
                seen.insert((r.user, r.item)),
                "duplicate rating for {:?}",
                (r.user, r.item)
            );
        }
    }

    #[test]
    fn user_genre_matrix_contains_rating_ranges() {
        let d = small_dataset(3);
        let m = user_genre_interval_matrix(&d);
        assert_eq!(m.shape(), (d.n_users, d.n_genres));
        assert!(m.is_proper());
        // Every stored bound lies in the rating scale.
        for &x in m.hi().as_slice() {
            assert!(x == 0.0 || (1.0..=5.0).contains(&x));
        }
        // Spot-check: each observed rating is inside its user-genre interval.
        for r in d.ratings.iter().take(200) {
            for &g in &d.item_genres[r.item] {
                let (lo, hi) = m.get_raw(r.user, g);
                assert!(lo <= r.value && r.value <= hi);
            }
        }
    }

    #[test]
    fn cf_interval_matrix_contains_the_observed_ratings() {
        let d = small_dataset(4);
        let (m, observed) = cf_interval_matrix(&d, 0.5);
        assert_eq!(observed.len(), d.len());
        assert!(m.is_proper());
        for (r, &(u, i)) in d.ratings.iter().zip(&observed) {
            assert_eq!((u, i), (r.user, r.item));
            let (lo, hi) = m.get_raw(u, i);
            assert!(lo <= r.value && r.value <= hi);
        }
        // Larger alpha -> wider intervals.
        let (wide, _) = cf_interval_matrix(&d, 2.0);
        assert!(wide.mean_span() > m.mean_span());
    }

    #[test]
    fn cf_scalar_matrix_matches_ratings() {
        let d = small_dataset(5);
        let (m, observed) = cf_scalar_matrix(&d);
        assert_eq!(observed.len(), d.len());
        for r in d.ratings.iter().take(100) {
            assert_eq!(m[(r.user, r.item)], r.value);
        }
    }

    #[test]
    fn cf_interval_csr_is_bitwise_identical_to_a_dense_rebuild() {
        let d = small_dataset(8);
        let (csr, observed) = cf_interval_csr(&d, 0.5);
        assert_eq!(csr.nnz(), d.len());
        assert_eq!(observed.len(), d.len());

        // Rebuild the dense matrix the way the pre-CSR implementation did
        // (direct dense fill) and demand bitwise agreement.
        let mut by_user: Vec<Vec<f64>> = vec![Vec::new(); d.n_users];
        let mut by_item: Vec<Vec<f64>> = vec![Vec::new(); d.n_items];
        for r in &d.ratings {
            by_user[r.user].push(r.value);
            by_item[r.item].push(r.value);
        }
        let mut lo = Matrix::zeros(d.n_users, d.n_items);
        let mut hi = Matrix::zeros(d.n_users, d.n_items);
        let mut pool = Vec::new();
        for r in &d.ratings {
            pool.clear();
            pool.extend_from_slice(&by_user[r.user]);
            pool.extend_from_slice(&by_item[r.item]);
            let delta = 0.5 * norms::std_dev(&pool);
            lo[(r.user, r.item)] = (r.value - delta).max(0.0);
            hi[(r.user, r.item)] = r.value + delta;
        }

        let dense = csr.to_dense();
        assert_eq!(lo.as_slice(), dense.lo().as_slice());
        assert_eq!(hi.as_slice(), dense.hi().as_slice());

        // The public wrapper is that same CSR densified.
        let (wrapped, wrapped_observed) = cf_interval_matrix(&d, 0.5);
        assert_eq!(wrapped.lo().as_slice(), dense.lo().as_slice());
        assert_eq!(wrapped.hi().as_slice(), dense.hi().as_slice());
        assert_eq!(wrapped_observed, observed);
    }

    #[test]
    fn cf_scalar_csr_matches_the_dense_wrapper_bitwise() {
        let d = small_dataset(9);
        let (csr, observed) = cf_scalar_csr(&d);
        assert_eq!(csr.nnz(), d.len());
        let mut direct = Matrix::zeros(d.n_users, d.n_items);
        for r in &d.ratings {
            direct[(r.user, r.item)] = r.value;
        }
        assert_eq!(direct.as_slice(), csr.to_dense().as_slice());
        let (wrapped, wrapped_observed) = cf_scalar_matrix(&d);
        assert_eq!(wrapped.as_slice(), direct.as_slice());
        assert_eq!(wrapped_observed, observed);
    }

    #[test]
    fn sharded_cf_csr_matches_the_single_shard_build() {
        let d = small_dataset(10);
        let (whole, observed) = cf_interval_csr(&d, 0.75);
        let (sharded, sharded_observed) = cf_interval_csr_sharded(&d, 0.75, 37);
        assert_eq!(sharded_observed, observed);
        assert_eq!(sharded.nnz(), whole.nnz());
        assert!(sharded.num_shards() > 1);
        let a = whole.to_dense();
        let b = sharded.to_dense();
        assert_eq!(a.lo().as_slice(), b.lo().as_slice());
        assert_eq!(a.hi().as_slice(), b.hi().as_slice());
    }

    #[test]
    fn category_ratings_match_reported_densities() {
        let mut rng = SmallRng::seed_from_u64(6);
        let config = CategoryRatingsConfig::ciao_like(800);
        let m = category_ratings_like(&config, &mut rng);
        assert_eq!(m.shape(), (800, 28));
        assert!(m.is_proper());
        let density = 1.0 - m.zero_fraction();
        assert!((density - 0.28).abs() < 0.04, "matrix density {density}");
        let int_density = m.interval_density();
        assert!(
            (int_density - 0.44).abs() < 0.08,
            "interval density {int_density}"
        );
        // All bounds on the 1..5 scale.
        for (&l, &h) in m.lo().as_slice().iter().zip(m.hi().as_slice()) {
            assert!(l == 0.0 || ((1.0..=5.0).contains(&l) && (1.0..=5.0).contains(&h)));
        }
    }

    #[test]
    fn epinions_config_differs_from_ciao() {
        let c = CategoryRatingsConfig::ciao_like(100);
        let e = CategoryRatingsConfig::epinions_like(100);
        assert_eq!(e.n_categories, 27);
        assert!(e.interval_density > c.interval_density);
    }

    #[test]
    fn scaled_config_shrinks_everything() {
        let c = MovieLensConfig::full().scaled(0.1);
        assert_eq!(c.n_users, 94);
        assert_eq!(c.n_items, 168);
        assert_eq!(c.n_ratings, 10_000);
        assert_eq!(c.n_genres, 19);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = small_dataset(7);
        let b = small_dataset(7);
        assert_eq!(a.ratings.len(), b.ratings.len());
        assert_eq!(a.ratings[0], b.ratings[0]);
        assert_eq!(a.item_genres, b.item_genres);
    }
}
