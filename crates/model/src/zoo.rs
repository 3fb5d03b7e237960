//! The Table-I model zoo.
//!
//! Six industry-representative recommendation models (paper Table I), each
//! available at **production** scale (full embedding tables; needs HW-aware
//! partition to fit a 16 GB accelerator) and **small** scale (fits on an
//! accelerator whole, used by the §III characterization).
//!
//! | Model | Service | Tables | Rows (prod) | Pooling | Dominant cost |
//! |---|---|---|---|---|---|
//! | DLRM-RMC1 | social media | 10 | 1–5 M | 20–160 multi-hot | memory |
//! | DLRM-RMC2 | social media | 96 | 1–5 M | 20–160 multi-hot | memory |
//! | DLRM-RMC3 | social media | 10 | 10–20 M | 20–50 multi-hot | compute |
//! | MT-WnD | video | 26 | 3–40 M | one-hot | compute (multi-task FCs) |
//! | DIN | e-commerce | 3 | 0.1–600 M | 1 + 100–1000 seq | compute (attention) |
//! | DIEN | e-commerce | 3 | 0.1–600 M | 1 + 100–1000 seq | compute (GRU) |

use hercules_common::units::{MemBytes, SimDuration};

use crate::graph::{Graph, NodeId};
use crate::op::{Activation, OpKind};
use crate::table::{EmbeddingTableSpec, PoolingSpec, TableId};

/// The six models of paper Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelKind {
    /// Facebook DLRM-RMC1: few tables, heavy multi-hot pooling.
    DlrmRmc1,
    /// Facebook DLRM-RMC2: ~100 tables, heavy multi-hot pooling.
    DlrmRmc2,
    /// Facebook DLRM-RMC3: wide bottom FC, moderate pooling.
    DlrmRmc3,
    /// Google MT-WnD: one-hot lookups, N parallel multi-task towers.
    MtWnd,
    /// Alibaba DIN: behaviour-sequence attention.
    Din,
    /// Alibaba DIEN: behaviour-sequence GRU + attention.
    Dien,
}

impl ModelKind {
    /// All six models in paper order.
    pub const ALL: [ModelKind; 6] = [
        ModelKind::DlrmRmc1,
        ModelKind::DlrmRmc2,
        ModelKind::DlrmRmc3,
        ModelKind::MtWnd,
        ModelKind::Din,
        ModelKind::Dien,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::DlrmRmc1 => "DLRM-RMC1",
            ModelKind::DlrmRmc2 => "DLRM-RMC2",
            ModelKind::DlrmRmc3 => "DLRM-RMC3",
            ModelKind::MtWnd => "MT-WnD",
            ModelKind::Din => "DIN",
            ModelKind::Dien => "DIEN",
        }
    }

    /// The SLA latency target used by the paper's evaluation (Fig. 15):
    /// 20/50/50/50/100/100 ms for RMC1/RMC2/RMC3/DIN/DIEN-=100/MT-WnD.
    pub fn default_sla(self) -> SimDuration {
        match self {
            ModelKind::DlrmRmc1 => SimDuration::from_millis(20),
            ModelKind::DlrmRmc2 => SimDuration::from_millis(50),
            ModelKind::DlrmRmc3 => SimDuration::from_millis(50),
            ModelKind::Din => SimDuration::from_millis(50),
            ModelKind::Dien => SimDuration::from_millis(100),
            ModelKind::MtWnd => SimDuration::from_millis(100),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Embedding-table scale of a model instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelScale {
    /// Full production table sizes (Table I "Prod" column).
    Production,
    /// Reduced tables that fit a 16 GB accelerator (Table I "Small" column).
    Small,
}

/// A fully-constructed recommendation model: graph + tables + metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RecModel {
    /// Which Table-I model this is.
    pub kind: ModelKind,
    /// Production or small embedding scale.
    pub scale: ModelScale,
    /// The end-to-end computation graph `Gm`.
    pub graph: Graph,
    /// Embedding-table specifications referenced by the graph.
    pub tables: Vec<EmbeddingTableSpec>,
    /// Width of the dense (continuous) input feature vector.
    pub dense_in: u32,
}

impl RecModel {
    /// Builds a model from the zoo.
    pub fn build(kind: ModelKind, scale: ModelScale) -> RecModel {
        match kind {
            ModelKind::DlrmRmc1 => build_dlrm(DlrmConfig {
                kind,
                scale,
                num_tables: 10,
                prod_rows: (1_000_000, 5_000_000),
                small_rows: 1_000_000,
                emb_dim: 32,
                pooling: PoolingSpec::multi_hot(20, 160),
                dense_in: 13,
                bot_fc: &[256, 128, 32],
                predict_fc: &[256, 64, 1],
            }),
            ModelKind::DlrmRmc2 => build_dlrm(DlrmConfig {
                kind,
                scale,
                num_tables: 96,
                prod_rows: (1_000_000, 5_000_000),
                small_rows: 1_000_000,
                emb_dim: 32,
                pooling: PoolingSpec::multi_hot(20, 160),
                dense_in: 13,
                bot_fc: &[256, 128, 32],
                predict_fc: &[512, 128, 1],
            }),
            ModelKind::DlrmRmc3 => build_dlrm(DlrmConfig {
                kind,
                scale,
                num_tables: 10,
                prod_rows: (10_000_000, 20_000_000),
                small_rows: 1_000_000,
                emb_dim: 32,
                pooling: PoolingSpec::multi_hot(20, 50),
                dense_in: 256,
                bot_fc: &[2560, 512, 32],
                predict_fc: &[512, 128, 1],
            }),
            ModelKind::MtWnd => build_mt_wnd(scale),
            ModelKind::Din => build_din(scale, false),
            ModelKind::Dien => build_din(scale, true),
        }
    }

    /// Total bytes of all embedding tables (the model's memory footprint;
    /// DenseNet weights are a few MB and ignored for capacity planning,
    /// §IV-B).
    pub fn total_table_size(&self) -> MemBytes {
        self.tables.iter().map(EmbeddingTableSpec::size).sum()
    }

    /// The paper's SLA target for this model.
    pub fn default_sla(&self) -> SimDuration {
        self.kind.default_sla()
    }

    /// Display name, e.g. `"DLRM-RMC1(prod)"`.
    pub fn name(&self) -> String {
        let scale = match self.scale {
            ModelScale::Production => "prod",
            ModelScale::Small => "small",
        };
        format!("{}({})", self.kind.name(), scale)
    }
}

struct DlrmConfig {
    kind: ModelKind,
    scale: ModelScale,
    num_tables: u32,
    prod_rows: (u64, u64),
    small_rows: u64,
    emb_dim: u32,
    pooling: PoolingSpec,
    dense_in: u32,
    bot_fc: &'static [u32],
    predict_fc: &'static [u32],
}

/// Deterministically spreads table sizes across `(min, max)` so a model has
/// a mix of small and large tables (rows vary within Table I's range).
fn spread_rows(i: u32, n: u32, (min, max): (u64, u64)) -> u64 {
    if n <= 1 {
        return (min + max) / 2;
    }
    min + (max - min) * i as u64 / (n as u64 - 1)
}

/// Appends an FC chain (with explicit activation nodes, fused later by the
/// fusion pass) and returns the id of the final node.
fn fc_chain(
    g: &mut Graph,
    prefix: &str,
    mut prev: Option<NodeId>,
    in_dim: u32,
    widths: &[u32],
    final_activation: Activation,
) -> NodeId {
    let mut cur_in = in_dim;
    let mut last = prev.take();
    for (li, &w) in widths.iter().enumerate() {
        let fc = g.add_node(
            format!("{prefix}-FC{li}"),
            OpKind::Fc {
                in_dim: cur_in,
                out_dim: w,
                fused_activation: None,
            },
        );
        if let Some(p) = last {
            g.add_edge(p, fc).expect("chain edges are valid");
        }
        let act_kind = if li + 1 == widths.len() {
            final_activation
        } else {
            Activation::Relu
        };
        let act = g.add_node(
            format!("{prefix}-Act{li}"),
            OpKind::ActivationOp {
                dim: w,
                kind: act_kind,
            },
        );
        g.add_edge(fc, act).expect("chain edges are valid");
        last = Some(act);
        cur_in = w;
    }
    last.expect("widths is non-empty")
}

fn build_dlrm(cfg: DlrmConfig) -> RecModel {
    let rows_of = |i: u32| match cfg.scale {
        ModelScale::Production => spread_rows(i, cfg.num_tables, cfg.prod_rows),
        ModelScale::Small => cfg.small_rows,
    };
    let tables: Vec<EmbeddingTableSpec> = (0..cfg.num_tables)
        .map(|i| EmbeddingTableSpec::new(rows_of(i), cfg.emb_dim, cfg.pooling, 0.8))
        .collect();

    let mut g = Graph::new();
    // Bottom MLP over dense features.
    let bot_out = fc_chain(
        &mut g,
        "Bot",
        None,
        cfg.dense_in,
        cfg.bot_fc,
        Activation::Relu,
    );
    // One SLS per table (Gather-and-Reduce).
    let sls: Vec<NodeId> = (0..cfg.num_tables)
        .map(|i| {
            g.add_node(
                format!("SLS-{i}"),
                OpKind::SparseLookup {
                    table: TableId::new(i),
                    reduce: true,
                },
            )
        })
        .collect();
    // Pairwise feature interaction over [bottom output; embeddings].
    let features = cfg.num_tables + 1;
    let emb_dim = cfg.emb_dim;
    let interact = g.add_node(
        "Interact",
        OpKind::FeatureInteraction {
            features,
            dim: emb_dim,
        },
    );
    g.add_edge(bot_out, interact).expect("valid");
    for &s in &sls {
        g.add_edge(s, interact).expect("valid");
    }
    // Concat interaction pairs with the bottom output, then the top MLP.
    let pairs = features * (features - 1) / 2;
    let concat_dim = pairs + emb_dim;
    let concat = g.add_node(
        "Concat",
        OpKind::Concat {
            inputs: 2,
            total_dim: concat_dim,
        },
    );
    g.add_edge(interact, concat).expect("valid");
    g.add_edge(bot_out, concat).expect("valid");
    fc_chain(
        &mut g,
        "Predict",
        Some(concat),
        concat_dim,
        cfg.predict_fc,
        Activation::Sigmoid,
    );

    debug_assert!(g.validate().is_ok());
    RecModel {
        kind: cfg.kind,
        scale: cfg.scale,
        graph: g,
        tables,
        dense_in: cfg.dense_in,
    }
}

/// MT-WnD: 26 one-hot tables, no bottom FC, N parallel task towers of
/// 1024-512-256 (paper Table I: `N x (1024-512-256)`); we use N = 5 tasks.
const MT_WND_TASKS: u32 = 5;

fn build_mt_wnd(scale: ModelScale) -> RecModel {
    const NUM_TABLES: u32 = 26;
    const EMB_DIM: u32 = 32;
    const DENSE_IN: u32 = 50;
    // Table I lists 3–40M rows; we cap at 20M so the production model fits
    // the 64 GB T1/T6 hosts of Table II (a deviation from Table I).
    let rows_of = |i: u32| match scale {
        ModelScale::Production => spread_rows(i, NUM_TABLES, (3_000_000, 20_000_000)),
        ModelScale::Small => 1_000_000,
    };
    let tables: Vec<EmbeddingTableSpec> = (0..NUM_TABLES)
        .map(|i| EmbeddingTableSpec::new(rows_of(i), EMB_DIM, PoolingSpec::OneHot, 0.95))
        .collect();

    let mut g = Graph::new();
    let lookups: Vec<NodeId> = (0..NUM_TABLES)
        .map(|i| {
            g.add_node(
                format!("Emb-{i}"),
                OpKind::SparseLookup {
                    table: TableId::new(i),
                    reduce: false,
                },
            )
        })
        .collect();
    let concat_dim = NUM_TABLES * EMB_DIM + DENSE_IN;
    let concat = g.add_node(
        "Concat",
        OpKind::Concat {
            inputs: NUM_TABLES + 1,
            total_dim: concat_dim,
        },
    );
    for &l in &lookups {
        g.add_edge(l, concat).expect("valid");
    }
    for t in 0..MT_WND_TASKS {
        fc_chain(
            &mut g,
            &format!("Task{t}"),
            Some(concat),
            concat_dim,
            &[1024, 512, 256, 1],
            Activation::Sigmoid,
        );
    }

    debug_assert!(g.validate().is_ok());
    RecModel {
        kind: ModelKind::MtWnd,
        scale,
        graph: g,
        tables,
        dense_in: DENSE_IN,
    }
}

/// DIN / DIEN: three tables — user profile (one-hot), candidate item
/// (one-hot), and behaviour-history sequence (gathered unreduced, 100–1000
/// per item) — attention (plus GRU for DIEN) and a 200-80-2 prediction head.
fn build_din(scale: ModelScale, with_gru: bool) -> RecModel {
    const EMB_DIM: u32 = 64;
    const ATTN_HIDDEN: u32 = 36;
    // Table I lists up to 600M rows; we cap the user table at 200M so the
    // production model fits the 64 GB T1/T6 hosts of Table II (a deviation
    // from Table I).
    let (user_rows, item_rows, hist_rows) = match scale {
        ModelScale::Production => (200_000_000u64, 2_000_000u64, 2_000_000u64),
        ModelScale::Small => (1_000_000, 100_000, 100_000),
    };
    let tables = vec![
        EmbeddingTableSpec::new(user_rows, EMB_DIM, PoolingSpec::OneHot, 1.05),
        EmbeddingTableSpec::new(item_rows, EMB_DIM, PoolingSpec::OneHot, 0.9),
        EmbeddingTableSpec::new(hist_rows, EMB_DIM, PoolingSpec::sequence(100, 1000), 0.9),
    ];
    let avg_seq = tables[2].avg_pooling();

    let mut g = Graph::new();
    let user = g.add_node(
        "Emb-User",
        OpKind::SparseLookup {
            table: TableId::new(0),
            reduce: false,
        },
    );
    let item = g.add_node(
        "Emb-Item",
        OpKind::SparseLookup {
            table: TableId::new(1),
            reduce: false,
        },
    );
    let hist = g.add_node(
        "Emb-Hist",
        OpKind::SparseLookup {
            table: TableId::new(2),
            reduce: false,
        },
    );
    let mut attn_input = hist;
    if with_gru {
        let gru = g.add_node(
            "GRU",
            OpKind::Gru {
                seq: avg_seq,
                dim: EMB_DIM,
                hidden: EMB_DIM,
            },
        );
        g.add_edge(hist, gru).expect("valid");
        attn_input = gru;
    }
    let attn = g.add_node(
        "Attention",
        OpKind::Attention {
            seq: avg_seq,
            dim: EMB_DIM,
            hidden: ATTN_HIDDEN,
        },
    );
    g.add_edge(attn_input, attn).expect("valid");
    g.add_edge(item, attn).expect("valid");

    let concat_dim = 3 * EMB_DIM;
    let concat = g.add_node(
        "Concat",
        OpKind::Concat {
            inputs: 3,
            total_dim: concat_dim,
        },
    );
    g.add_edge(user, concat).expect("valid");
    g.add_edge(item, concat).expect("valid");
    g.add_edge(attn, concat).expect("valid");
    fc_chain(
        &mut g,
        "Predict",
        Some(concat),
        concat_dim,
        &[200, 80, 2],
        Activation::Sigmoid,
    );

    debug_assert!(g.validate().is_ok());
    RecModel {
        kind: if with_gru {
            ModelKind::Dien
        } else {
            ModelKind::Din
        },
        scale,
        graph: g,
        tables,
        dense_in: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_build_and_validate() {
        for kind in ModelKind::ALL {
            for scale in [ModelScale::Production, ModelScale::Small] {
                let m = RecModel::build(kind, scale);
                m.graph.validate().unwrap();
                assert!(!m.tables.is_empty(), "{kind} has tables");
                assert!(m.graph.len() > 3, "{kind} has a real graph");
            }
        }
    }

    #[test]
    fn table_counts_match_table_i() {
        assert_eq!(
            RecModel::build(ModelKind::DlrmRmc1, ModelScale::Production)
                .tables
                .len(),
            10
        );
        assert_eq!(
            RecModel::build(ModelKind::DlrmRmc2, ModelScale::Production)
                .tables
                .len(),
            96
        );
        assert_eq!(
            RecModel::build(ModelKind::MtWnd, ModelScale::Production)
                .tables
                .len(),
            26
        );
        assert_eq!(
            RecModel::build(ModelKind::Din, ModelScale::Production)
                .tables
                .len(),
            3
        );
    }

    #[test]
    fn production_models_exceed_gpu_memory() {
        // The premise of HW-aware model partition (§IV-B): production models
        // do not fit a 16 GB accelerator.
        let gpu = MemBytes::from_gib(16);
        for kind in [
            ModelKind::DlrmRmc2,
            ModelKind::DlrmRmc3,
            ModelKind::MtWnd,
            ModelKind::Din,
        ] {
            let m = RecModel::build(kind, ModelScale::Production);
            assert!(
                m.total_table_size() > gpu,
                "{kind} should exceed 16GB, got {}",
                m.total_table_size()
            );
        }
    }

    #[test]
    fn small_models_fit_gpu_memory() {
        let gpu = MemBytes::from_gib(16);
        for kind in ModelKind::ALL {
            let m = RecModel::build(kind, ModelScale::Small);
            assert!(
                m.total_table_size() < gpu,
                "{kind} small should fit 16GB, got {}",
                m.total_table_size()
            );
        }
    }

    #[test]
    fn rmc_models_are_memory_dominated_relative_to_rmc3() {
        // Arithmetic intensity (FLOPs/byte) ordering of Fig. 1: RMC1/RMC2 are
        // memory-dominated; RMC3 / MT-WnD / DIN are compute-dominated.
        let intensity = |kind: ModelKind| {
            let m = RecModel::build(kind, ModelScale::Production);
            let c = m.graph.total_cost(128, &m.tables);
            c.flops / c.total_bytes()
        };
        let rmc1 = intensity(ModelKind::DlrmRmc1);
        let rmc2 = intensity(ModelKind::DlrmRmc2);
        let rmc3 = intensity(ModelKind::DlrmRmc3);
        let wnd = intensity(ModelKind::MtWnd);
        let din = intensity(ModelKind::Din);
        assert!(
            rmc1 < rmc3 && rmc2 < rmc3,
            "RMCs 1/2 more memory-bound than RMC3"
        );
        assert!(rmc1 < wnd && rmc1 < din);
        assert!(wnd > 10.0, "MT-WnD strongly compute-dominated: {wnd}");
    }

    #[test]
    fn dien_has_serial_recurrence() {
        let m = RecModel::build(ModelKind::Dien, ModelScale::Small);
        let c = m.graph.total_cost(16, &m.tables);
        assert!(c.serial_steps > 100, "GRU imposes a long serial chain");
        let din = RecModel::build(ModelKind::Din, ModelScale::Small);
        assert_eq!(din.graph.total_cost(16, &din.tables).serial_steps, 1);
    }

    #[test]
    fn sla_targets_match_paper() {
        assert_eq!(
            ModelKind::DlrmRmc1.default_sla(),
            SimDuration::from_millis(20)
        );
        assert_eq!(
            ModelKind::DlrmRmc3.default_sla(),
            SimDuration::from_millis(50)
        );
        assert_eq!(
            ModelKind::MtWnd.default_sla(),
            SimDuration::from_millis(100)
        );
    }

    #[test]
    fn names_render() {
        let m = RecModel::build(ModelKind::Din, ModelScale::Small);
        assert_eq!(m.name(), "DIN(small)");
        assert_eq!(format!("{}", ModelKind::Dien), "DIEN");
    }

    #[test]
    fn spread_rows_covers_range() {
        assert_eq!(spread_rows(0, 10, (100, 1000)), 100);
        assert_eq!(spread_rows(9, 10, (100, 1000)), 1000);
        assert_eq!(spread_rows(0, 1, (100, 1000)), 550);
    }
}
