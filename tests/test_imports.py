import os
import subprocess
import sys

import apifuzz


def test_the_package_loads_no_third_party_http_client():
    """The package speaks HTTP through the standard library alone."""
    src = os.path.dirname(os.path.dirname(apifuzz.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, apifuzz, apifuzz.cli; "
            "print(sorted({'requests', 'urllib3'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
