"""Figure 8: GraphX-CC memory read/write bandwidth over time, unmanaged
vs Panthera (DRAM ratio 1/3).

Paper shape: under the unmanaged layout most traffic (and its high
instantaneous peaks) hits NVM; Panthera migrates the frequently accessed
data to DRAM, shrinking both total NVM traffic and its peaks.
"""

from repro.config import DeviceKind
from repro.harness.configs import fig4_configs
from repro.harness.experiment import run_experiment

from benchmarks.conftest import BENCH_SCALE, print_and_report


def _run_both():
    configs = fig4_configs(BENCH_SCALE)
    return {
        policy: run_experiment(
            "CC",
            configs[policy],
            scale=BENCH_SCALE,
            keep_context=True,
        )
        for policy in ("unmanaged", "panthera")
    }


def _sparkline(series, buckets=24):
    """Render a bandwidth series as a coarse text sparkline."""
    if not series:
        return "(no traffic)"
    blocks = " .:-=+*#%@"
    peak = max(s.gbps for s in series) or 1.0
    step = max(1, len(series) // buckets)
    cells = []
    for i in range(0, len(series), step):
        window = series[i : i + step]
        level = max(s.gbps for s in window) / peak
        cells.append(blocks[min(len(blocks) - 1, int(level * (len(blocks) - 1)))])
    return "".join(cells) + f"  (peak {peak:.1f} GB/s)"


def test_fig8_cc_bandwidth_traces(benchmark):
    results = benchmark.pedantic(_run_both, rounds=1, iterations=1)
    lines = []
    stats = {}
    for policy, result in results.items():
        bw = result.context.machine.bandwidth
        lines.append(f"**{policy}**")
        lines.append("")
        for device in (DeviceKind.DRAM, DeviceKind.NVM):
            for is_write, label in ((False, "read"), (True, "write")):
                series = bw.series(device, is_write)
                total = bw.total_bytes(device, is_write) / 2**30
                peak = bw.peak_gbps(device, is_write)
                stats[(policy, device, is_write)] = (total, peak)
                lines.append(
                    f"- {device.value} {label}: total {total:.1f} GiB, "
                    f"peak {peak:.1f} GB/s"
                )
                lines.append(f"  `{_sparkline(series)}`")
        lines.append("")
    print_and_report("fig8", "Figure 8: GraphX-CC bandwidth over time", lines)

    # Panthera moves traffic from NVM to DRAM (§5.4).
    unm_nvm_reads = stats[("unmanaged", DeviceKind.NVM, False)][0]
    pan_nvm_reads = stats[("panthera", DeviceKind.NVM, False)][0]
    assert pan_nvm_reads < unm_nvm_reads
    # And it reduces NVM's peak instantaneous read bandwidth.
    unm_nvm_peak = stats[("unmanaged", DeviceKind.NVM, False)][1]
    pan_nvm_peak = stats[("panthera", DeviceKind.NVM, False)][1]
    assert pan_nvm_peak <= unm_nvm_peak + 0.5
    # DRAM keeps a healthy share of traffic under Panthera.
    pan_dram_reads = stats[("panthera", DeviceKind.DRAM, False)][0]
    assert pan_dram_reads > pan_nvm_reads
