//! Out-of-core sparse decomposition: a rating-matrix-shaped power-law
//! interval matrix is generated block by block, written to disk in the
//! sparse CSR **binary container** (`ivmf shards v1`: checksummed
//! length-prefixed records holding bit-exact raw runs), and decomposed with the Gram-route algorithms
//! (ISVD2–4) **without ever holding the matrix in memory** — at no point
//! does anything larger than one row block plus the `m × m` Gram
//! accumulators exist. The session wraps the reader in the env-driven
//! prefetcher (`IVMF_PREFETCH`, default double buffering), so the next
//! shard decodes on a background I/O thread while the current one folds
//! into the Gram — same bits, less wall-clock.
//!
//! Run with: `cargo run --release -p ivmf-bench --example sparse_out_of_core`
//!
//! Defaults stay small enough to finish in seconds. For the paper's
//! million-user scale, pass the shape on the command line (the working set
//! stays bounded; only disk and wall-clock grow):
//!
//! ```text
//! cargo run --release -p ivmf-bench --example sparse_out_of_core -- 1000000 10000 100
//! ```

use std::time::Instant;

use ivmf_core::{IsvdAlgorithm, IsvdConfig, Pipeline};
use ivmf_data::stream::{CsrShardReader, CsrShardWriter};
use ivmf_data::synthetic::{generate_power_law, PowerLawConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20_000);
    let cols: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(500);
    let nnz_per_row: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(50);
    let rank = 5;

    let path = std::env::temp_dir().join(format!("ivmf_out_of_core_{}.csr", std::process::id()));

    // Phase 1: stream the matrix onto disk, one row block at a time. Each
    // block is an independent power-law (Zipf column popularity) sample —
    // the shape of real rating data, where a few items collect most of the
    // ratings.
    let block_rows = 10_000.min(rows.max(1));
    let block_config = PowerLawConfig::ratings_like(block_rows, cols).with_nnz_per_row(nnz_per_row);
    let mut rng = SmallRng::seed_from_u64(7);
    let start = Instant::now();
    let mut writer = CsrShardWriter::create(&path, rows, cols).expect("create CSR file");
    let mut written = 0usize;
    let mut nnz = 0usize;
    while written < rows {
        let take = block_rows.min(rows - written);
        let config = if take == block_rows {
            block_config
        } else {
            PowerLawConfig::ratings_like(take, cols).with_nnz_per_row(nnz_per_row)
        };
        let block = generate_power_law(&config, &mut rng);
        nnz += block.nnz();
        writer.push_shard(&block).expect("append block");
        written += take;
    }
    writer.finish().expect("row accounting");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "generated {rows} x {cols} interval matrix: {nnz} stored entries \
         (density {:.4}%), {:.1} MiB on disk, {:.2?}",
        100.0 * nnz as f64 / (rows as f64 * cols as f64),
        bytes as f64 / (1024.0 * 1024.0),
        start.elapsed()
    );

    // Phase 2: decompose straight off the file. The reader hands the
    // pipeline one CSR shard at a time; the Gram-route algorithms fold each
    // shard into the sparse streaming accumulators and drop it.
    let config = IsvdConfig::new(rank);
    let reader = CsrShardReader::open(&path, 4096).expect("open CSR file");
    let mut session = Pipeline::new_streaming_csr_send(Box::new(reader), config).expect("session");
    println!("\n{:<8} {:>12} {:>14}", "method", "time", "sigma_1");
    for algorithm in [
        IsvdAlgorithm::Isvd2,
        IsvdAlgorithm::Isvd3,
        IsvdAlgorithm::Isvd4,
    ] {
        let start = Instant::now();
        let result = session.run(algorithm).expect("decomposition");
        let sigma = &result.factors.sigma[0];
        println!(
            "{:<8} {:>12.2?} [{:.3}, {:.3}]",
            format!("{algorithm}"),
            start.elapsed(),
            sigma.lo(),
            sigma.hi()
        );
    }
    println!(
        "\n(ISVD3/4 reuse ISVD2's interval Gram via the stage cache — only \
         the first algorithm pays the disk pass.)"
    );
    std::fs::remove_file(&path).ok();
}
