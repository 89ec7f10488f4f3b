"""Hybrid quantum-classical crack classification on an exact statevector
simulator, with interchangeable gradient methods and exact device-call
accounting."""
