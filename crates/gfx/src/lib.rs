//! Graphics software-stack model: frames, API surface, interposer, compression.
//!
//! The paper's rendering system is X11 + OpenGL (Mesa) with TurboVNC's
//! graphics interposer (VirtualGL) redirecting 3D rendering to the server
//! GPU and reading frames back for the VNC proxy. This crate provides:
//!
//! * [`frame`] — the frame buffer type: a low-resolution pixel raster used
//!   for computer vision, frame-similarity comparison and entropy estimation,
//!   plus the logical 1920×1080 size used for bandwidth/copy costs.
//! * [`raster`] — deterministic rasterization of scene objects into frames.
//! * [`tag`] — Pictor's tag embedding: tags ride in pixel LSBs across the
//!   app→proxy IPC boundary and are extracted/restored by the proxy (Fig 4).
//! * [`api`] — the X11/OpenGL call surface that Pictor's hooks intercept
//!   (Table 1) and the observer trait the framework attaches to.
//! * [`interposer`] — the VirtualGL-style readback pipeline cost model,
//!   including the two inefficiencies optimized in §6
//!   (`XGetWindowAttributes` per frame; synchronous frame copy).
//! * [`compress`] — the VNC tight-encoding-style compression model mapping
//!   frame content to compressed bytes and CPU cost.
//!
//! # Per-frame pixel kernels
//!
//! Every simulated frame is rasterized ([`draw_scene_into`]) and, at the VNC
//! proxy, measured by the compression model ([`Frame::entropy`],
//! [`Frame::diff_fraction`]); the intelligent client's variance gate
//! (`pictor_client::vision::cell_std`) reads it once more. These kernels are
//! the simulator's per-frame host cost. Each is bit-identical to the seed
//! loop it replaced, which is kept as a `*_reference` function: tests
//! compare the two (`tests/pixel_kernels.rs`) and the microbenches time
//! them side by side (`raster_draw_scene` vs `raster_draw_scene_reference`,
//! and so on). Why each is exact:
//!
//! * **Rasterization** evaluates every floating-point expression of the
//!   reference in the same order; it only stores whole rows through
//!   [`Frame::bytes_mut`] and converts with [`raster::trunc_u8`]. That is
//!   `(y.trunc() + 2^52).to_bits() as u8`, which equals the saturating
//!   `y as u8` for every `y ∈ [0, 256)` because an integer below `2^52`
//!   plus `2^52` is exact and sits in the low mantissa bits. The rasterizer
//!   stays in that range: background `v = (row + col) · amb ∈ [7.5, 125)`,
//!   so every channel is below 100, and object channels are at most
//!   `220 · 1.0`. Debug builds assert the range.
//! * **Entropy** counts into four interleaved `u32` histograms (at most
//!   15 552 bytes each); their sums are the reference's `u64` counts, and
//!   the log-sum over them is the same code.
//! * **Changed-pixel fraction** compares eight pixels (three 64-bit words)
//!   per step with a branch-free nonzero-byte mask; the count is an
//!   integer, so the fraction is the same division.
//! * **Cell standard deviation** sums bytes and squares in `u32`. Every
//!   partial sum of the reference's `f64` accumulation is an integer below
//!   `2^53` and therefore exact, so both `f64` sums, and the result, are
//!   equal.
//!
//! After this rewrite the entropy histogram is the largest per-frame piece:
//! it is bound by one load-increment-store per byte (README, Performance).

pub mod api;
pub mod compress;
pub mod frame;
pub mod interposer;
pub mod raster;
pub mod tag;

pub use api::{ApiCall, ApiEvent, ApiObserver, NullObserver};
pub use compress::CompressionModel;
pub use frame::{Frame, Resolution};
pub use interposer::InterposerConfig;
pub use raster::{draw_scene, draw_scene_into, draw_scene_into_reference, SceneObject};
pub use tag::{embed_tag, extract_tag, restore_pixels, SavedPixels, Tag, TagList};
