"""The paper's future-work features, evaluated: fp16 training, transfer
compression, time-to-train, weak scaling, inference profiling.

Run:  python examples/extensions_ablation.py

GNNMark's conclusion lists four planned extensions — half-precision
training, compression of sparse transfers, the MLPerf time-to-train metric
and weak-scaling studies — plus inference characterization from pretrained
models.  All five are implemented here; this script demonstrates each on a
representative workload.
"""

import numpy as np

from repro.core import profile_inference, profile_workload, registry
from repro.gpu import SimulatedGPU, SimulationConfig
from repro.train import Trainer
from repro.train.ddp import replica_stream, weak_point


def main() -> None:
    # -- 1. half-precision training ---------------------------------------
    fp32 = profile_workload("ARGA", scale="test", epochs=1)
    fp16 = profile_workload("ARGA", scale="test", epochs=1,
                            sim=SimulationConfig(precision="fp16"))
    print("1) half-precision training (ARGA):")
    print(f"   kernel time  {fp32.kernels.total_time_s * 1e3:7.2f} ms (fp32)"
          f" -> {fp16.kernels.total_time_s * 1e3:7.2f} ms (fp16)")
    print(f"   L1 hit rate  {fp32.cache()['l1_hit'] * 100:5.1f}%"
          f" -> {fp16.cache()['l1_hit'] * 100:5.1f}%\n")

    # -- 2. sparsity-exploiting transfer compression ----------------------
    zvc = profile_workload("ARGA", scale="test", epochs=1,
                           sim=SimulationConfig(transfer_compression="zvc"))
    print("2) zero-value transfer compression (ARGA, 98% sparse labels):")
    print(f"   logical H2D  {zvc.sparsity.total_bytes() / 1e6:7.2f} MB")
    print(f"   wire traffic {zvc.sparsity.total_wire_bytes() / 1e6:7.2f} MB"
          f"  (x{zvc.sparsity.compression_ratio():.1f} reduction)\n")

    # -- 3. time-to-train --------------------------------------------------
    device = SimulatedGPU()
    workload = registry.get("KGNNL").build(device=device, scale="test")
    trainer = Trainer(workload=workload, device=device)
    result = trainer.train_to_target("loss", 0.68, mode="min", max_epochs=25)
    print("3) time-to-train (KGNNL to cross-entropy 0.68):")
    print(f"   converged={result.converged} in {result.epochs} epochs,"
          f" {result.sim_time_s * 1e3:.2f} ms simulated GPU time\n")

    # -- 4. weak scaling ----------------------------------------------------
    print("4) weak scaling (STGCN, per-GPU batch fixed):")
    # every weak point is arithmetic over the one split-1 replica stream
    stream = replica_stream("STGCN", 1, scale="test")
    base = weak_point("STGCN", 1, stream)
    for n in (1, 2, 4):
        point = weak_point("STGCN", n, stream)
        eff = base.epoch_time_s / point.epoch_time_s
        print(f"   {n} GPU(s): epoch {point.epoch_time_s * 1e3:7.2f} ms,"
              f" efficiency {eff:.2f}")
    print()

    # -- 5. inference characterization --------------------------------------
    print("5) inference profiling (forward-only after a warm-up epoch):")
    for key in ("DGCN", "TLSTM", "GW"):
        infer = profile_inference(key, scale="test")
        mix = infer.kernels.instruction_mix()
        print(f"   {key:<6} {infer.kernels.total_time_s * 1e3:7.2f} ms,"
              f" {infer.launch_count:4d} kernels,"
              f" {mix['fp32'] * 100:4.1f}% fp32 instructions")


if __name__ == "__main__":
    main()
