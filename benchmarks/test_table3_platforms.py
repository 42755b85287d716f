"""Table III: experiment platform specifications.

Sanity-checks the platform registry against the paper's row values
(link rates, node counts, interfaces); the table itself is the ledger's
(``repro paper --only table3``).
"""

from repro.platforms import PLATFORMS, get_platform


def test_platform_values_match_paper():
    def check():
        th_xy = get_platform("th-xy")
        assert th_xy.nic.bandwidth_gbps == 200.0 and th_xy.node.nics == 2
        assert th_xy.max_nodes == 1728 and th_xy.channel == "glex"
        th_2a = get_platform("th-2a")
        assert th_2a.nic.bandwidth_gbps == 114.0 and th_2a.node.nics == 1
        assert th_2a.max_nodes == 192
        ib = get_platform("hpc-ib")
        assert ib.nic.bandwidth_gbps == 100.0 and ib.channel == "verbs"
        assert ib.max_nodes == 24 and ib.node.cores == 18
        roce = get_platform("hpc-roce")
        assert roce.nic.bandwidth_gbps == 25.0 and roce.max_nodes == 12
        return True

    assert check()


def test_every_platform_builds_a_cluster():
    from repro.sim import Environment

    def build():
        sizes = {}
        for name, plat in PLATFORMS.items():
            cluster = plat.make_cluster(Environment(), n_nodes=4)
            sizes[name] = (cluster.n_nodes, cluster.node(0).n_rails)
        return sizes

    sizes = build()
    assert sizes["th-xy"] == (4, 2)
    assert sizes["hpc-ib"] == (4, 1)
