"""Table I: overheads of the partitioned API calls.

Paper values (mean +- std): MPI_PSend/Recv_init 17.2 +- 10.2 us;
MPIX_Pallreduce_init 62.3 +- 6.2 us; MPIX_Prequest_create 110.7 +- 37.8 us;
MPIX_Pbuf_prepare 193.4 us first call / 3.4 +- 1.4 us average.

Each measured row must land inside the paper's mean +- (std + 25%) band,
and the structural claims must hold: collective init > point-to-point
init (multiple inits + schedule); first prepare >> later prepares.
"""

from conftest import run_exhibit, within

# call -> (paper mean, accepted band)
BANDS = {
    "MPI_Psend_init": (17.2, (7.0, 28.0)),
    "MPI_Precv_init": (17.2, (7.0, 28.0)),
    "MPIX_Pallreduce_init": (62.3, (45.0, 80.0)),
    "MPIX_Prequest_create": (110.7, (73.0, 150.0)),
    "MPIX_Pbuf_prepare (first)": (193.4, (150.0, 240.0)),
    "MPIX_Pbuf_prepare (avg)": (3.4, (1.5, 5.5)),
}


def test_table1_overheads(benchmark):
    series = run_exhibit(benchmark, "table1")
    by_call = {row["call"]: row["measured_us"] for row in series.rows}

    for call, (_paper, (lo, hi)) in BANDS.items():
        within(by_call[call], lo, hi, call)

    assert by_call["MPIX_Pallreduce_init"] > by_call["MPI_Psend_init"], (
        "collective init includes multiple p2p inits + schedule creation"
    )
    assert by_call["MPIX_Pbuf_prepare (first)"] > 20 * by_call["MPIX_Pbuf_prepare (avg)"], (
        "first prepare carries MCA init + registration; later ones only synchronize"
    )
