"""Exact symbolic toolkit for plane-partition series identities, torus
fixed-point combinatorics on framed-sheaf moduli, class polynomials of the
fixed components, and an independent finite-field point-counting oracle."""
