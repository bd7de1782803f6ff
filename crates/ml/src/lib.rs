#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-ml
//!
//! From-scratch CPU machine learning for the COVIDKG reproduction. The
//! paper trains its models with Keras/TensorFlow and Scikit-learn on a GPU
//! cluster (§3 "Hardware"); this crate reimplements the needed pieces in
//! pure Rust at laptop scale:
//!
//! * [`matrix`] — a small row-major `f32` matrix with the handful of BLAS
//!   ops the models need;
//! * [`svm`] — a Sequential Minimal Optimization SVM with linear, RBF and
//!   sigmoid kernels (the paper's Machine-learning classifier, §3.5,
//!   citing Lin & Lin's sigmoid-kernel SMO study [63]);
//! * [`word2vec`] — skip-gram with negative sampling ([65]) for the term-
//!   and cell-level embeddings of Fig 3;
//! * [`rnn`] — GRU and LSTM cells with full backpropagation through time,
//!   plus bidirectional runners (§3.6 compares biGRU vs biLSTM);
//! * [`layers`] — Dense, BatchNorm and Dropout layers for the classifier
//!   head of Fig 3;
//! * [`adam`] — the Adam optimizer;
//! * [`model`] — the BiGRU ensemble with parallel term- and cell-level
//!   embedding paths (Fig 3), configurable to use LSTM cells for the
//!   §3.6 ablation;
//! * [`kmeans`] — k-means clustering for the topical-cluster extraction
//!   step (№5 in Fig 1);
//! * [`metrics`] — precision/recall/F1 and the 10-fold cross-validation
//!   harness behind the §3.3 numbers.

pub mod adam;
pub mod kmeans;
pub mod layers;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod rnn;
pub mod serialize;
pub mod svm;
pub mod word2vec;

pub use adam::Adam;
pub use kmeans::{kmeans, KMeansResult};
pub use matrix::Matrix;
pub use metrics::{f1_score, kfold_indices, kfold_stratified, ClassMetrics, Confusion};
pub use model::{CellKind, TupleClassifier, TupleClassifierConfig, TupleExample};
pub use serialize::TensorStore;
pub use svm::{Kernel, Svm, SvmConfig};
pub use word2vec::{Word2Vec, Word2VecConfig};
