"""Cryptography functions (the PKA algorithm families, §2.2 A2):
AES-128, SHA-1 and RSA."""

from . import aes, rsa, sha1

__all__ = ["aes", "rsa", "sha1"]
