"""The repo benchmark: planner and planner-service workloads.

Four workloads, each measured in fresh processes: ``golden5``, ``grid10``
and ``scale15`` plan catalog regions cold through ``repro.api.plan``;
``service_mix`` drives an ``iris serve`` daemon with two closed-loop
clients. See ``README.md`` in this directory for the workloads, the
metrics and how to run, trace and compare.
"""
