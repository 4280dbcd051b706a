"""Exception hierarchy shared by all rbr modules."""


class RbrError(Exception):
    """Base class for all errors raised by this package."""


class GraphValidationError(RbrError):
    """A raw graph description violates the RBR graph well-formedness rules."""


class EmptyAgentUniverse(GraphValidationError):
    pass


class SelfBelief(GraphValidationError):
    def __init__(self, node):
        super().__init__(f"node {node} has an edge to a node with its own label")
        self.node = node


class DuplicateSuccessor(GraphValidationError):
    def __init__(self, node, agent):
        super().__init__(f"node {node} has two successors labelled {agent}")
        self.node = node
        self.agent = agent


class DesignationMismatch(GraphValidationError):
    def __init__(self, agent, node):
        super().__init__(f"agent {agent} designates node {node} with a different label")
        self.agent = agent
        self.node = node


class UnreachableNode(GraphValidationError):
    def __init__(self, node):
        super().__init__(f"node {node} is not reachable from any designated node")
        self.node = node


class DanglingEdge(GraphValidationError):
    def __init__(self, edge):
        super().__init__(f"edge {edge} mentions an unknown node")
        self.edge = edge


class UnknownNode(RbrError):
    def __init__(self, node):
        super().__init__(f"unknown node {node}")
        self.node = node


class ZeroLength(RbrError):
    """Path-sequence level must be at least 1, a round count at least 0."""


class SizeCap(RbrError):
    """An enumeration exceeded its configured size guard."""


class SceneOwnerMismatch(RbrError):
    pass


class ForeignStrategy(RbrError):
    pass


class TooFewAgents(RbrError):
    pass


class AgentMissingFromGame(RbrError):
    pass


class InvalidSolution(RbrError):
    pass


class NonTermination(RbrError):
    """The rationalisation loop exceeded its safety bound; implementation bug."""


class LabelMixingPartition(RbrError):
    """A partition block contains nodes with different labels."""


class AgentUniverseMismatch(RbrError):
    pass


class PartialMapping(RbrError):
    pass


class NotCanonical(RbrError):
    pass


class NotFinest(RbrError):
    pass


class FormatError(RbrError):
    """Base for text-format errors; carries a 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GraphSyntaxError(FormatError):
    pass


class DuplicateDeclaration(FormatError):
    pass


class UnknownIdentifier(FormatError):
    pass


class MissingUtilityEntry(FormatError):
    pass


class DuplicateStrategy(FormatError):
    pass
