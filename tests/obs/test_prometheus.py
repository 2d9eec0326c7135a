"""Prometheus text exposition conformance (format 0.0.4).

Rendering is pure (snapshot in, text out), so these tests feed synthetic
registry snapshots and check the wire format directly: name sanitisation,
label-value escaping, cumulative ``le`` buckets, and the ``worker.<pid>.`` /
``serve.tenant.<id>.`` prefix-to-label encoding.
"""

from __future__ import annotations

from repro.obs import metrics as obs_metrics
from repro.obs.prometheus import CONTENT_TYPE, render_prometheus


def render(counters=None, gauges=None, histograms=None) -> str:
    return render_prometheus(
        {
            "counters": counters or {},
            "gauges": gauges or {},
            "histograms": histograms or {},
        }
    )


def test_content_type_is_prometheus_text():
    assert CONTENT_TYPE.startswith("text/plain")
    assert "version=0.0.4" in CONTENT_TYPE


def test_counter_and_gauge_types_and_namespace():
    text = render(
        counters={"serve.connections": 3.0}, gauges={"pool.active": 2.0}
    )
    assert "# TYPE repro_serve_connections counter" in text
    assert "repro_serve_connections 3" in text
    assert "# TYPE repro_pool_active gauge" in text
    assert "repro_pool_active 2" in text


def test_name_sanitisation():
    # Every invalid character maps to _; the repro_ namespace prefix keeps
    # a digit-leading metric name legal without further guarding.
    text = render(counters={"3rd.metric-with bad+chars": 1.0})
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        name = line.split(" ", 1)[0].split("{", 1)[0]
        assert name == "repro_3rd_metric_with_bad_chars"


def test_worker_prefix_becomes_label():
    text = render(counters={"worker.123.env.chunks": 5.0})
    assert 'repro_env_chunks{worker="123"} 5' in text


def test_tenant_prefix_becomes_label():
    text = render(gauges={"serve.tenant.acme.clock_skew_s": 1.5})
    assert 'repro_clock_skew_s{tenant="acme"} 1.5' in text


def test_label_value_escaping():
    # Backslash, double quote, and newline must be escaped per the format
    # spec; anything else passes through verbatim.
    text = render(gauges={'serve.tenant.a\\b"c\nd.sse_clients': 1.0})
    assert '{tenant="a\\\\b\\"c\\nd"}' in text
    assert "\nrepro_sse_clients{" in text  # still a single sample line


def test_histogram_cumulative_buckets():
    text = render(
        histograms={
            "env.advance_s": {
                "bounds": [0.1, 1.0],
                "counts": [2, 1, 1],  # per-bucket: <=0.1, <=1.0, overflow
                "count": 4,
                "sum": 2.5,
                "min": 0.01,
                "max": 2.0,
            }
        }
    )
    lines = [l for l in text.splitlines() if l.startswith("repro_env_advance_s")]
    # Buckets are cumulative and emitted in ascending le order, +Inf last.
    assert lines[0] == 'repro_env_advance_s_bucket{le="0.1"} 2'
    assert lines[1] == 'repro_env_advance_s_bucket{le="1"} 3'
    assert lines[2] == 'repro_env_advance_s_bucket{le="+Inf"} 4'
    assert "repro_env_advance_s_sum 2.5" in lines
    assert "repro_env_advance_s_count 4" in lines
    assert "# TYPE repro_env_advance_s histogram" in text


def test_histogram_le_values_not_lexically_scrambled():
    # A lexical sort would order "10" before "2.5"; the renderer must keep
    # numeric ascending order so cumulative counts stay monotone.
    text = render(
        histograms={
            "h": {
                "bounds": [2.5, 10.0],
                "counts": [1, 1, 0],
                "count": 2,
                "sum": 5.0,
                "min": 1.0,
                "max": 9.0,
            }
        }
    )
    bucket_lines = [l for l in text.splitlines() if "_bucket{" in l]
    assert [l.split('le="')[1].split('"')[0] for l in bucket_lines] == [
        "2.5",
        "10",
        "+Inf",
    ]


def test_families_sorted_and_scrape_parseable():
    text = render(
        counters={"b.second": 1.0, "a.first": 2.0},
        gauges={"serve.tenants": 1.0},
    )
    families = [
        line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")
    ]
    assert families == sorted(families)
    # Minimal scrape-validity: every non-comment line is `name[{labels}] value`.
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        assert name_part and float(value) is not None


def test_renders_live_registry_by_default(obs_enabled):
    obs_metrics.registry().counter("demo.hits").inc(2.0)
    text = render_prometheus()
    assert "repro_demo_hits 2" in text
