"""build_parser().print_help(file) writes the help to file, and nothing to stdout."""

import io

from heatcg import cli


def test_help_given_a_file_goes_to_that_file_only(capsys):
    parser = cli.build_parser()
    stream = io.StringIO()
    parser.print_help(stream)
    assert stream.getvalue() == parser.format_help()
    assert stream.getvalue().startswith("usage: heatcg ")
    assert capsys.readouterr() == ("", "")
