//! GPU architecture descriptions used by the cost model and the performance
//! simulator.
//!
//! The paper evaluates on NVIDIA A100 (SM80) and H100 (SM90) GPUs with the
//! clock locked at 1.41 GHz for reproducibility; the same specifications are
//! encoded here.

use std::fmt;

use crate::dtype::DType;

/// A GPU generation, used to gate instruction availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GpuGeneration {
    /// NVIDIA Ampere (SM80): A100.
    Ampere,
    /// NVIDIA Hopper (SM90): H100, with TMA and warp-group MMA.
    Hopper,
}

/// A description of a GPU architecture: compute and memory throughput,
/// shared-memory organisation and feature flags.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuArch {
    /// Human-readable name (e.g. "NVIDIA A100 PCIe 80GB").
    pub name: String,
    /// Architecture generation.
    pub generation: GpuGeneration,
    /// Compute capability, e.g. `(8, 0)` for the A100.
    pub compute_capability: (u32, u32),
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Core clock in GHz (locked at 1.41 GHz in the paper's evaluation).
    pub clock_ghz: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub dram_bandwidth_gbs: f64,
    /// Peak L2 bandwidth in GB/s.
    pub l2_bandwidth_gbs: f64,
    /// Shared-memory bandwidth per SM in bytes per cycle.
    pub smem_bytes_per_cycle_per_sm: f64,
    /// Number of shared-memory banks.
    pub smem_banks: usize,
    /// Width of one shared-memory bank in bytes.
    pub smem_bank_bytes: usize,
    /// Maximum shared memory per thread block in bytes.
    pub max_smem_per_block: usize,
    /// 32-bit registers per thread (maximum).
    pub max_registers_per_thread: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Maximum threads per thread block.
    pub max_threads_per_block: usize,
    /// Peak FP16 Tensor Core throughput in TFLOP/s (dense).
    pub fp16_tensor_tflops: f64,
    /// Peak FP8 Tensor Core throughput in TFLOP/s (dense, 0 if unsupported).
    pub fp8_tensor_tflops: f64,
    /// Peak FP32 SIMT throughput in TFLOP/s.
    pub fp32_simt_tflops: f64,
    /// Whether the Tensor Memory Accelerator (TMA) is available.
    pub has_tma: bool,
    /// Whether warp-group MMA (`wgmma`) and warp specialization are
    /// first-class (Hopper).
    pub has_wgmma: bool,
    /// Kernel launch overhead in microseconds (dominates Marlin-old's MoE).
    pub kernel_launch_overhead_us: f64,
    /// Global memory access latency (DRAM miss) in cycles.
    pub dram_latency_cycles: f64,
    /// L2 hit latency in cycles.
    pub l2_latency_cycles: f64,
    /// Shared memory access latency in cycles.
    pub smem_latency_cycles: f64,
}

impl GpuArch {
    /// The NVIDIA A100 PCIe 80 GB used in the paper's evaluation.
    pub fn a100() -> Self {
        GpuArch {
            name: "NVIDIA A100 PCIe 80GB".to_string(),
            generation: GpuGeneration::Ampere,
            compute_capability: (8, 0),
            num_sms: 108,
            clock_ghz: 1.41,
            dram_bandwidth_gbs: 1935.0,
            l2_bandwidth_gbs: 4000.0,
            smem_bytes_per_cycle_per_sm: 128.0,
            smem_banks: 32,
            smem_bank_bytes: 4,
            max_smem_per_block: 163 * 1024,
            max_registers_per_thread: 255,
            warp_size: 32,
            max_threads_per_block: 1024,
            fp16_tensor_tflops: 312.0,
            fp8_tensor_tflops: 0.0,
            fp32_simt_tflops: 19.5,
            has_tma: false,
            has_wgmma: false,
            kernel_launch_overhead_us: 4.0,
            dram_latency_cycles: 470.0,
            l2_latency_cycles: 200.0,
            smem_latency_cycles: 29.0,
        }
    }

    /// The NVIDIA H100 PCIe 80 GB used in the paper's evaluation.
    pub fn h100() -> Self {
        GpuArch {
            name: "NVIDIA H100 PCIe 80GB".to_string(),
            generation: GpuGeneration::Hopper,
            compute_capability: (9, 0),
            num_sms: 114,
            clock_ghz: 1.41,
            dram_bandwidth_gbs: 2000.0,
            l2_bandwidth_gbs: 5500.0,
            smem_bytes_per_cycle_per_sm: 128.0,
            smem_banks: 32,
            smem_bank_bytes: 4,
            max_smem_per_block: 227 * 1024,
            max_registers_per_thread: 255,
            warp_size: 32,
            max_threads_per_block: 1024,
            fp16_tensor_tflops: 756.0,
            fp8_tensor_tflops: 1513.0,
            fp32_simt_tflops: 51.0,
            has_tma: true,
            has_wgmma: true,
            kernel_launch_overhead_us: 3.5,
            dram_latency_cycles: 560.0,
            l2_latency_cycles: 230.0,
            smem_latency_cycles: 29.0,
        }
    }

    /// Looks up an architecture by a short name (`"a100"`, `"h100"`).
    pub fn by_name(name: &str) -> Option<GpuArch> {
        match name.to_ascii_lowercase().as_str() {
            "a100" | "sm80" | "ampere" => Some(GpuArch::a100()),
            "h100" | "sm90" | "hopper" => Some(GpuArch::h100()),
            _ => None,
        }
    }

    /// Whether instructions requiring the given minimum compute capability
    /// are available on this architecture.
    pub fn supports_cc(&self, min_cc: (u32, u32)) -> bool {
        self.compute_capability >= min_cc
    }

    /// Cycles elapsed in the given number of nanoseconds at this clock.
    pub fn ns_to_cycles(&self, ns: f64) -> f64 {
        ns * self.clock_ghz
    }

    /// Nanoseconds elapsed in the given number of cycles at this clock.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles / self.clock_ghz
    }

    /// Peak Tensor Core throughput in FLOP per cycle per SM for a multiply
    /// data type.
    pub fn tensor_flops_per_cycle_per_sm(&self, dtype: DType) -> f64 {
        let tflops = match dtype {
            DType::F16 | DType::BF16 => self.fp16_tensor_tflops,
            DType::F8E4M3 | DType::F8E5M2 => {
                if self.fp8_tensor_tflops > 0.0 {
                    self.fp8_tensor_tflops
                } else {
                    self.fp16_tensor_tflops
                }
            }
            DType::I8 | DType::U8 | DType::I4 | DType::U4 => self.fp16_tensor_tflops * 2.0,
            _ => self.fp32_simt_tflops,
        };
        tflops * 1e12 / (self.num_sms as f64 * self.clock_ghz * 1e9)
    }

    /// The ideal (roofline) latency in microseconds of a kernel that must
    /// move `bytes` and perform `flops` floating point operations with the
    /// given multiply data type, assuming perfect overlap.
    pub fn roofline_latency_us(&self, bytes: f64, flops: f64, dtype: DType) -> f64 {
        let mem_us = bytes / self.dram_bandwidth_gbs * 1e-3;
        let tflops = match dtype {
            DType::F16 | DType::BF16 => self.fp16_tensor_tflops,
            DType::F8E4M3 | DType::F8E5M2 if self.fp8_tensor_tflops > 0.0 => self.fp8_tensor_tflops,
            DType::F32 | DType::F64 => self.fp32_simt_tflops,
            _ => self.fp16_tensor_tflops,
        };
        let compute_us = flops / (tflops * 1e12) * 1e6;
        mem_us.max(compute_us)
    }
}

impl fmt::Display for GpuArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (sm_{}{})",
            self.name, self.compute_capability.0, self.compute_capability.1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architectures_have_sane_specs() {
        for arch in [GpuArch::a100(), GpuArch::h100()] {
            assert!(arch.num_sms > 50);
            assert!(arch.dram_bandwidth_gbs > 1000.0);
            assert_eq!(arch.warp_size, 32);
            assert_eq!(arch.smem_banks, 32);
            assert!((arch.clock_ghz - 1.41).abs() < 1e-9);
        }
    }

    #[test]
    fn h100_is_newer_and_faster() {
        let a100 = GpuArch::a100();
        let h100 = GpuArch::h100();
        assert!(h100.compute_capability > a100.compute_capability);
        assert!(h100.fp16_tensor_tflops > a100.fp16_tensor_tflops);
        assert!(h100.has_tma && !a100.has_tma);
        assert!(h100.has_wgmma && !a100.has_wgmma);
        assert!(h100.supports_cc((8, 0)));
        assert!(!a100.supports_cc((9, 0)));
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(
            GpuArch::by_name("A100").unwrap().generation,
            GpuGeneration::Ampere
        );
        assert_eq!(
            GpuArch::by_name("hopper").unwrap().generation,
            GpuGeneration::Hopper
        );
        assert!(GpuArch::by_name("mi300").is_none());
    }

    #[test]
    fn cycle_conversions_round_trip() {
        let arch = GpuArch::a100();
        let cycles = arch.ns_to_cycles(100.0);
        assert!((arch.cycles_to_ns(cycles) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn roofline_switches_between_memory_and_compute_bound() {
        let arch = GpuArch::h100();
        // A tiny GEMM is memory bound; a large square GEMM is compute bound.
        let small = arch.roofline_latency_us(1e6, 1e6, DType::F16);
        assert!((small - 1e6 / arch.dram_bandwidth_gbs * 1e-3).abs() < 1e-9);
        let big_flops = 2.0 * 8192.0f64.powi(3);
        let big_bytes = 3.0 * 8192.0 * 8192.0 * 2.0;
        let big = arch.roofline_latency_us(big_bytes, big_flops, DType::F16);
        assert!(big > big_bytes / arch.dram_bandwidth_gbs * 1e-3);
    }

    #[test]
    fn tensor_core_throughput_per_sm() {
        let arch = GpuArch::a100();
        let per_sm = arch.tensor_flops_per_cycle_per_sm(DType::F16);
        // 312 TFLOPs over 108 SMs at 1.41 GHz is roughly 2048 FLOP/cycle/SM.
        assert!(per_sm > 1500.0 && per_sm < 2500.0);
    }
}
