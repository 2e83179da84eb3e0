"""Closed-loop benchmark of worstvote with drift-cancelling reference units."""
