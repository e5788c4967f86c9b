"""Tests for the command-line interface."""

import gc
import io
import json
import weakref

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.data.synthetic import generate_dataset


def _run(argv):
    """Run the CLI capturing stdout; return (exit_code, output)."""
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


BASE = ["--scale", "tiny", "--coverage", "0.2", "--min-support", "3"]


class TestParser:
    def test_all_subcommands_are_registered(self):
        parser = build_parser()
        actions = {
            action.dest: action
            for action in parser._subparsers._group_actions  # noqa: SLF001 - introspection in tests
        }
        assert set(actions["command"].choices) == {
            "generate",
            "explain",
            "explore",
            "timeline",
            "serve",
        }

    def test_missing_subcommand_exits_with_usage_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scale_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "--scale", "galactic", "--query", "x"])

    @pytest.mark.parametrize("backend", ["sharded", "fleet"])
    def test_unknown_mining_backend_rejected_by_argparse(self, backend, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--mining-backend", backend])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestGenerate:
    def test_generate_writes_a_movielens_directory(self, tmp_path):
        output = tmp_path / "ml"
        code, text = _run(["generate", "--scale", "tiny", "--output", str(output)])
        assert code == 0
        assert (output / "ratings.dat").exists()
        assert "wrote" in text

        from repro.data.movielens import load_movielens_directory

        dataset = load_movielens_directory(output)
        assert dataset.num_reviewers == 150


class TestExplain:
    def test_text_output_lists_both_interpretations(self):
        code, text = _run(["explain", *BASE, "--query", 'title:"Toy Story"'])
        assert code == 0
        assert "Similarity Mining" in text
        assert "Diversity Mining" in text

    def test_json_output_is_valid_json(self):
        code, text = _run(["explain", *BASE, "--json", "--query", 'title:"Toy Story"'])
        assert code == 0
        payload = json.loads(text[: text.rindex("}") + 1])
        assert payload["query"]["item_titles"] == ["Toy Story"]

    def test_html_report_is_written(self, tmp_path):
        path = tmp_path / "fig2.html"
        code, text = _run(
            ["explain", *BASE, "--query", 'title:"Toy Story"', "--html", str(path)]
        )
        assert code == 0
        assert path.exists()
        assert "Similarity Mining" in path.read_text(encoding="utf-8")

    def test_unmatched_query_is_an_error_exit(self, capsys):
        code, _ = _run(["explain", *BASE, "--query", 'title:"No Such Movie"'])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("year", ["0", "99999"])
    def test_out_of_range_year_is_an_error_exit(self, capsys, year):
        code, _ = _run(["explain", *BASE, "--query", 'title:"Toy Story"', "--start-year", year])
        assert code == 2
        assert "outside the supported range" in capsys.readouterr().err

    def test_year_restriction_is_applied(self):
        code, text = _run(
            [
                "explain",
                *BASE,
                "--query",
                'title:"Toy Story"',
                "--start-year",
                "2001",
                "--end-year",
                "2001",
            ]
        )
        assert code == 0
        full_code, full_text = _run(["explain", *BASE, "--query", 'title:"Toy Story"'])
        restricted = int(text.split("Ratings: ")[1].split()[0])
        full = int(full_text.split("Ratings: ")[1].split()[0])
        assert restricted < full

    def test_no_geo_anchor_flag(self):
        code, text = _run(
            ["explain", *BASE, "--no-geo-anchor", "--query", 'title:"Toy Story"']
        )
        assert code == 0
        assert "Similarity Mining" in text


class TestExploreAndTimeline:
    def test_explore_prints_statistics_and_drilldown(self):
        code, text = _run(["explore", *BASE, "--query", 'title:"Toy Story"', "--group", "0"])
        assert code == 0
        assert "group:" in text
        assert "city drill-down:" in text

    def test_explore_writes_the_html_page(self, tmp_path):
        path = tmp_path / "fig3.html"
        code, _ = _run(
            ["explore", *BASE, "--query", 'title:"Toy Story"', "--html", str(path)]
        )
        assert code == 0
        assert "Rating distribution" in path.read_text(encoding="utf-8")

    def test_timeline_prints_one_line_per_year(self):
        code, text = _run(
            ["timeline", *BASE, "--query", 'title:"Toy Story"', "--min-ratings", "10"]
        )
        assert code == 0
        years = [line.split(":")[0] for line in text.strip().splitlines()]
        assert set(years) <= {"2000", "2001", "2002", "2003"}
        assert len(years) >= 2


class TestServe:
    def test_serve_keeps_no_reference_to_the_loaded_dataset(self, monkeypatch):
        """While serving, only the system may hold the starting dataset."""
        loaded = []

        def load_dataset(args):
            dataset = generate_dataset("tiny")
            loaded.append(weakref.ref(dataset))
            return dataset

        class Server:
            url = "http://127.0.0.1:0"
            alive_while_serving = None

            def serve_forever(self):
                gc.collect()
                self.alive_while_serving = loaded[0]() is not None

            def stop(self):
                pass

        server = Server()
        monkeypatch.setattr(cli, "_load_dataset", load_dataset)
        monkeypatch.setattr(cli, "run_server", lambda dataset, config, **kwargs: server)
        code, text = _run(["serve", "--port", "0", "--warm-up", "0"])
        assert code == 0 and "MapRat serving at" in text
        assert server.alive_while_serving is False
